package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// refJSONValue is the encoder appendJSONValue replaced, kept as the
// oracle: reflection json.Marshal, and fmt.Sprint's text as a JSON
// string for what JSON cannot carry (NaN, the infinities).
func refJSONValue(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprint(v))
	}
	return b
}

// refEventJSON is the event encoding built on refJSONValue.
func refEventJSON(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"tick":%d,"type":%s`, e.Tick, refJSONValue(string(e.Type)))
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s:%s", refJSONValue(k), refJSONValue(e.Fields[k]))
	}
	return b.String() + "}"
}

// ino stands in for namespace.Ino: a named integer type, which takes
// the fallback arm (obs must not import namespace for a test).
type ino uint64

var (
	adversarialFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1987.5, 0.1, 1.0 / 3, 123456789.125,
		1e-7, -1e-7, 1e-6, 0.999e-6, 9.5e-7, 1e20, 1e21, -1e21, 9.99999999999999e20, 1.5e300, 1e-9, 1e-10, 1e-100,
		5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, 1 << 53,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	adversarialInts = []int64{0, 1, -1, 255, 256, 1 << 31, -(1 << 31), math.MaxInt64, math.MinInt64}
	adversarialStrs = []string{
		"", " ", "active", "1/8*", "write", "a<b", "a>b", "a&b", `q"uote`, `back\slash`, "tab\t", "nl\n", "\x00", "\x1f",
		"\x7f", "~", "é", "日本", "\u2028", "\u2029", "\xff", "ok\xc3", "\xed\xa0\x80", "sp ace", "'single'",
	}
)

// TestAppendJSONMatchesEncodingJSON pins the encoder contract: for every
// value type an emit site puts in a field (grep `f["…"] =` and obs.F
// literals under internal/) and a table of adversarial values, the
// typed arms of appendJSONValue produce exactly the bytes of the
// reflection encoder they replaced — and so does a whole event with 0,
// 1, 16 and 17 fields, either side of the stack key scratch.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	var values []any
	for _, f := range adversarialFloats {
		values = append(values, f)
	}
	for _, i := range adversarialInts {
		values = append(values, i, int(i), int32(i), uint64(i), ino(i))
	}
	for _, s := range adversarialStrs {
		values = append(values, s, Type(s))
	}
	values = append(values, true, false, nil, []int{}, []int{3, 1, 2}, []int(nil), []string{"a<b"}, float32(0.1), uint8(7))
	for _, v := range values {
		if got, want := appendJSONValue(nil, v), refJSONValue(v); string(got) != string(want) {
			t.Errorf("appendJSONValue(%T %#v) = %s, encoding/json %s", v, v, got, want)
		}
		// Appending must leave what is already in dst alone (the float
		// arm rewrites the exponent in place).
		if got, want := appendJSONValue([]byte("1e-07"), v), "1e-07"+string(refJSONValue(v)); string(got) != want {
			t.Errorf("appendJSONValue onto a prefix (%T %#v) = %s, want %s", v, v, got, want)
		}
	}

	for _, n := range []int{0, 1, 15, 16, 17, 40} {
		e := Event{Tick: math.MinInt64 + int64(n), Type: EvRank, Fields: F{}}
		for i := 0; i < n; i++ {
			e.Fields[fmt.Sprintf("k%02d", i)] = values[(i*5)%len(values)]
		}
		if got, want := e.String(), refEventJSON(e); got != want {
			t.Errorf("%d fields:\n got %s\nwant %s", n, got, want)
		}
	}
	for _, e := range []Event{
		{Tick: 0, Type: "odd<type>"}, // nil Fields
		{Tick: -1, Type: EvEpoch, Fields: F{`k"ey`: 1, "é": 2.5, "a&b": "x"}},
	} {
		if got, want := e.String(), refEventJSON(e); got != want {
			t.Errorf("got %s\nwant %s", got, want)
		}
	}
}

// FuzzAppendJSONValue holds the three typed arms with an input space
// (float64, the integers, string) to the same oracle.
func FuzzAppendJSONValue(f *testing.F) {
	for i, x := range adversarialFloats {
		f.Add(x, adversarialInts[i%len(adversarialInts)], adversarialStrs[i%len(adversarialStrs)])
	}
	f.Fuzz(func(t *testing.T, x float64, i int64, s string) {
		for _, v := range []any{x, i, int(i), int32(i), s} {
			if got, want := appendJSONValue(nil, v), refJSONValue(v); string(got) != string(want) {
				t.Fatalf("appendJSONValue(%T %#v) = %s, encoding/json %s", v, v, got, want)
			}
		}
		e := Event{Tick: i, Type: Type(s), Fields: F{s: x, "i": i}}
		if got, want := e.String(), refEventJSON(e); got != want {
			t.Fatalf("got %s\nwant %s", got, want)
		}
	})
}

// benchEvents are the three shapes BenchmarkAppendJSON prices. The
// fields are boxed once here, as a pooled Fields map's are by its emit
// site, so the benchmark times the encoder alone.
func benchEvents() map[string]Event {
	return map[string]Event{
		// The most frequent event of a write-back run: all ints.
		"batch_flush": {Tick: 371, Type: EvBatchFlush, Fields: F{
			"client": 17, "rank": 3, "n": 32, "age": int64(4), "depth": 212}},
		// The per-rank epoch snapshot: two floats, a bool, two strings.
		"rank": {Tick: 410, Type: EvRank, Fields: F{
			"rank": 3, "epoch": 41, "load": 1987.5, "ops": int64(812345), "stalls": int64(1203),
			"heat": 517.0625, "queued": 1, "active": 2, "up": true, "state": "active"}},
		// A lease grant: dir is a named integer type and ranks a slice,
		// so two fields take the encoding/json fallback — the case the
		// typed arms do not help.
		"fallback": {Tick: 90, Type: EvLeaseGrant, Fields: F{
			"dir": ino(4711), "frag": "1/8*", "ranks": []int{2, 5}, "until": int64(130), "read_frac": 0.96875}},
	}
}

func BenchmarkAppendJSON(b *testing.B) {
	events := benchEvents()
	for _, name := range []string{"batch_flush", "rank", "fallback"} {
		e := events[name]
		b.Run(name, func(b *testing.B) {
			buf := make([]byte, 0, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = e.AppendJSON(buf[:0])
			}
		})
	}
}
