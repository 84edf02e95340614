package workload

import "slices"

// appendPadded appends non-negative n to dst, zero-padded to at least
// width digits — byte-identical to fmt.Sprintf("%0*d", width, n), but
// without fmt's per-call allocations. The op streams generate one name
// per create, so name formatting sits on the serve path.
func appendPadded(dst []byte, n, width int) []byte {
	var tmp [20]byte
	p := len(tmp)
	for {
		p--
		tmp[p] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	for len(tmp)-p < width {
		p--
		tmp[p] = '0'
	}
	return append(dst, tmp[p:]...)
}

// nameChunk is how many names one string allocation holds.
const nameChunk = 64

// nameSeq hands out the names prefix + i + suffix for i = from, from+1,
// ..., to-1, with i zero-padded to at least width digits: byte-identical
// to fmt.Sprintf(prefix+"%0<width>d"+suffix, i) for every i, past the
// pad width too. Names are built nameChunk at a time into one buffer,
// converted to a string once and handed out as substrings — one
// allocation per 64 names for the strings the tree stores, instead of a
// Sprintf (or even a conversion) per name. Every generator names its
// files and directories through it, setup and create streams alike.
type nameSeq struct {
	prefix, suffix string
	width, i, to   int
	k              int      // the next name's index in names
	names          []string // the chunk's names, substrings of one string
	buf            []byte
}

func newNameSeq(prefix string, width int, suffix string, from, to int) nameSeq {
	return nameSeq{prefix: prefix, suffix: suffix, width: width, i: from, to: to}
}

// next returns the next name; there must be one (i < to). It inlines
// into a create stream's Draw, which then calls fill once per nameChunk
// names.
func (s *nameSeq) next() (name string) {
	if s.k >= len(s.names) {
		s.fill()
	}
	name = s.names[s.k]
	s.k++
	return
}

// fill builds the chunk of up to nameChunk names starting at i.
func (s *nameSeq) fill() {
	n := min(nameChunk, s.to-s.i)
	var ends [nameChunk]int
	s.buf = s.buf[:0]
	for j := range n {
		s.buf = append(appendPadded(append(s.buf, s.prefix...), s.i, s.width), s.suffix...)
		ends[j] = len(s.buf)
		s.i++
	}
	chunk, start := string(s.buf), 0
	s.k, s.names = 0, slices.Grow(s.names[:0], n)
	for _, end := range ends[:n] {
		s.names = append(s.names, chunk[start:end])
		start = end
	}
}

// nameList returns the names [0, n) of prefix, width and suffix, for a
// name that depends only on its index — file i of every directory is
// built once and shared.
func nameList(prefix string, width int, suffix string, n int) []string {
	s := newNameSeq(prefix, width, suffix, 0, n)
	out := make([]string, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}
