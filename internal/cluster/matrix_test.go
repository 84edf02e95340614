package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/balancer"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

// matrixCell is one pinned cell of the balancer x workload matrix.
type matrixCell struct {
	workload string
	// liveness, when set, injects the rank-state change the cell pins
	// the policy's Importable path with.
	liveness func(*Config) func(*Cluster)
}

// matrixLiveness are the two liveness rows every balancer also runs on
// the zipf workload: a crash and recovery of rank 1 (rank 0's ring
// neighbour, so GreedySpill must walk to the next importable rank),
// and a drain of rank 0 (the rank every workload starts on, so the
// policy has a loaded exporter it must leave to the drain pump). The
// matrix's own zipf cell finishes inside two epochs, so these rows run
// a longer stream against slower ranks and span some twenty epochs.
var matrixLiveness = map[string]func(*Config) func(*Cluster){
	"crash": func(cfg *Config) func(*Cluster) {
		var sched fault.Schedule
		sched.Crash(40, 1).Recover(120, 1)
		cfg.Faults = &sched
		cfg.Workload, cfg.Capacity = failoverZipf(), 300
		return nil
	},
	"drain": func(cfg *Config) func(*Cluster) {
		cfg.Workload, cfg.Capacity = failoverZipf(), 300
		return func(c *Cluster) { c.events.schedule(60, func() { c.StartDrain(0) }) }
	},
}

// TestBalancerWorkloadMatrix runs every balancer against every
// workload at tiny scale, plus the two liveness rows, and checks the
// universal invariants — the run completes, no operations are lost,
// governed subtree sizes stay consistent, the JCT count matches the
// client count — and the cell's pinned output digests (matrixDigests).
func TestBalancerWorkloadMatrix(t *testing.T) {
	balancers := map[string]func() balancer.Balancer{
		"vanilla":     func() balancer.Balancer { return balancer.NewVanilla() },
		"greedyspill": func() balancer.Balancer { return balancer.NewGreedySpill() },
		"dirhash":     func() balancer.Balancer { return balancer.NewDirHash() },
		"light":       func() balancer.Balancer { return core.NewLight() },
		"lunule":      func() balancer.Balancer { return core.NewDefault() },
	}
	workloads := map[string]func() workload.Generator{
		"cnn": func() workload.Generator {
			return workload.NewCNN(workload.CNNConfig{Dirs: 20, FilesPerDir: 8})
		},
		"nlp": func() workload.Generator {
			return workload.NewNLP(workload.NLPConfig{Dirs: 6, FilesPerDir: 40})
		},
		"web": func() workload.Generator {
			return workload.NewWeb(workload.WebConfig{Files: 600, RequestsPerClient: 1500})
		},
		"zipf": func() workload.Generator {
			return workload.NewZipf(workload.ZipfConfig{FilesPerClient: 100, OpsPerClient: 2500})
		},
		"md": func() workload.Generator {
			return workload.NewMD(workload.MDConfig{CreatesPerClient: 1200})
		},
		"mdshared": func() workload.Generator {
			return workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: 1200})
		},
	}
	cells := map[string]matrixCell{}
	for wName := range workloads {
		cells[wName] = matrixCell{workload: wName}
	}
	for lName, l := range matrixLiveness {
		cells["zipf+"+lName] = matrixCell{workload: "zipf", liveness: l}
	}
	for bName, mkB := range balancers {
		for cName, cell := range cells {
			name := fmt.Sprintf("%s/%s", bName, cName)
			t.Run(name, func(t *testing.T) {
				var tr bytes.Buffer
				sink := obs.NewJSONL(&tr)
				cfg := Config{
					Balancer: mkB(),
					Workload: workloads[cell.workload](),
					Clients:  8,
					Seed:     17,
					Bus:      obs.NewBus(sink),
				}
				var after func(*Cluster)
				if cell.liveness != nil {
					after = cell.liveness(&cfg)
				}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if after != nil {
					after(c)
				}
				c.RunUntilDone(8000)
				if !c.Done() {
					t.Fatal("run did not complete")
				}
				var clientOps, served int64
				for _, cl := range c.Clients() {
					clientOps += cl.OpsDone()
				}
				for _, s := range c.Servers() {
					served += s.OpsTotal()
				}
				if clientOps != served {
					t.Fatalf("ops lost: clients %d vs served %d", clientOps, served)
				}
				total := 0
				for _, sz := range c.Partition().SubtreeSizes() {
					if sz < 0 {
						t.Fatal("negative governed size")
					}
					total += sz
				}
				if total != c.Tree().NumInodes() {
					t.Fatalf("partition accounts %d of %d inodes", total, c.Tree().NumInodes())
				}
				if len(c.Metrics().JCT) != 8 {
					t.Fatalf("JCT count = %d", len(c.Metrics().JCT))
				}

				var csv bytes.Buffer
				if err := c.Metrics().WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				if err := c.Metrics().WriteEpochCSV(&csv); err != nil {
					t.Fatal(err)
				}
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				got := [2]string{
					fmt.Sprintf("%x", sha256.Sum256(csv.Bytes())),
					fmt.Sprintf("%x", sha256.Sum256(tr.Bytes())),
				}
				if want := matrixDigests[name]; got != want {
					t.Errorf("output digests {csv, trace} = %q, recorded %q: model output changed", got, want)
				}
			})
		}
	}
}

func TestPinPath(t *testing.T) {
	c := newTestCluster(t, Config{})
	if err := c.PinPath("/zipf/client000", 3); err != nil {
		t.Fatal(err)
	}
	dir, _ := c.Tree().Lookup("/zipf/client000")
	if c.Partition().AuthOf(dir.Children()[0]) != 3 {
		t.Fatal("pinned subtree not on the requested rank")
	}
	if err := c.PinPath("/nope", 0); err == nil {
		t.Fatal("pinning a missing path must error")
	}
	if err := c.PinPath("/zipf/client000", 99); err == nil {
		t.Fatal("pinning to an invalid rank must error")
	}
	if err := c.PinPath("/zipf/client000/file00000", 0); err == nil {
		t.Fatal("pinning a file must error")
	}
}

// matrixDigests pins every cell's externally visible output as two
// SHA-256s: the per-tick plus per-epoch CSV, and the JSONL event trace.
// Recorded at the commit before the policy layer became one pipeline;
// a change that means to alter model output re-records the cell. The
// greedyspill trace digests are the one re-recorded column: the policy
// now runs through the Mantle adaptor, whose `trigger` event carries
// the shed `amount` where the native one named the `to` rank (a
// generic policy has a target vector); its CSV digests did not move.
var matrixDigests = map[string][2]string{
	"dirhash/cnn":            {"4bf3b98e0ec698d621461d61f41e9f01002edb8896e9055c4cb9c80f07a4cfb3", "e878ced78b5805a6ae28aa565181b887d7429aca5a8771618472c8c0e44f7d7d"},
	"dirhash/md":             {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"dirhash/mdshared":       {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"dirhash/nlp":            {"306285314ee64c82da7b08837db87736600c09958366ebcb98c12c8fde3a8b9c", "665cd892893249485408a542bcbb5325f842519a7501f41714050a558b5ebf77"},
	"dirhash/web":            {"1d98d14af6385a49d70e70b009afd53a47cc12ce270a4f531bc3c45aa45d2c14", "2e4b68e602b7db585767c590550607661f3c31bade3fa01b2b814d08505d796e"},
	"dirhash/zipf":           {"bb45fa5c905b8ba295ab78e8cb7ab304f44f14615f642fb481ec4b0ecaebd8db", "34cdd47bb8d42d700838184066a45a71827f7a39bfa4e1d2e12142c3e61debea"},
	"dirhash/zipf+crash":     {"ed0520cb915feac268cb050bd6120d0b011af6a9222044a99e802833ebef3adb", "750f9faa217c62533e5e7298b45a33b397b51fa4a51ccbb59a68d682b1b92eca"},
	"dirhash/zipf+drain":     {"f99cd7015016a4803d0a0b419e1b1ab498a80c43876c9263326fd1250119bf61", "ea2df171ad5e45d56b336e4830674465cde53fd06e514f2ded186a395e663f69"},
	"greedyspill/cnn":        {"1bd4d7a8c0a430560222c7bfe09e9bfab0d0b42310cbb7230ee7f6d0fbf6f361", "3532b82c22beb0f55dd180163949442bd800cf0610de80386bf9931a62ae8c9f"},
	"greedyspill/md":         {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"greedyspill/mdshared":   {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"greedyspill/nlp":        {"3dad3fbcefa2a622bf2563012ee14b5d9b42123eacc57d4131d360e8a22c6f4c", "1e227531c20914b856310967c3386c6ea800ec009c19f49295fac28f05455498"},
	"greedyspill/web":        {"1fa460e9b54e4470912731a80ae226374a6bba9e43a1b997ed125304d1416f7d", "50a46a7247df90577c9450ac115048052f4a026c21f7ebe99436b819f9fdd4a3"},
	"greedyspill/zipf":       {"f170e3ec610a0316e9407595f5b4b555d68302bc19c0b7182ee6f1d224c3d210", "416b90d6e9d5e0a838b8fdc48ba17b191beebf04514d7be4cf7dc42e5b6cb2bb"},
	"greedyspill/zipf+crash": {"f9a71fdd9afca0415419d3ab7d43c5503b6bca0071d7f039d64104bc8a0caafd", "e0f8e3d83c64b8571b96efd0ac9e54df2d0338670de91b9d85ec1f7e98d8c22f"},
	"greedyspill/zipf+drain": {"f69107f6ab1ebdc13d7bd022e7a6fa13607e055aaf365584e968c2f8dc7d7eb7", "6630be2c066d3af6a132bfd0a565a8e23484371aaf6c806d4b61089ff6cbc6ba"},
	"light/cnn":              {"1bd4d7a8c0a430560222c7bfe09e9bfab0d0b42310cbb7230ee7f6d0fbf6f361", "e942b1a50301ba6e15a9242fbc4bfe5a246ce7e3639bb137cb43d1f338b62e61"},
	"light/md":               {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"light/mdshared":         {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"light/nlp":              {"80b32fcb6183add0fa77d0ba60c8f9590569588c356c5da20116b00546f8df18", "e44b095b62908022ef36c3712b0197e38b03908f20efa3154e9768d5c2b953d3"},
	"light/web":              {"11d5f07624526adbe0280d7daee369268b07273ee1008df22806e96728a602f5", "47b87a980f75abd582125be67813a0f837679f297fcde7de27a8df3a1eae4f7f"},
	"light/zipf":             {"f170e3ec610a0316e9407595f5b4b555d68302bc19c0b7182ee6f1d224c3d210", "572323b340091957e7f0dd570eb174be55ffa84fc46517837410310cf8cb042f"},
	"light/zipf+crash":       {"998b3a32aab84b41ad3b81bfb5aeef3ec54ec2568f4a681ca798d34744ce5054", "d4f728d0fda757d14e58f091e8633bccff7b81ea1a25fd8b57f2a5282fbea3dc"},
	"light/zipf+drain":       {"2e2a6ee91b78f20d7a5cf84c6c3eef2fa5d0a3baeab06946cd6ce55a4c1c3def", "428bbb2b5acff3684aee138d0f725744a456f91e46e2937375663f7a0d808b81"},
	"lunule/cnn":             {"1bd4d7a8c0a430560222c7bfe09e9bfab0d0b42310cbb7230ee7f6d0fbf6f361", "34c065f508be1a9d08d4427403f240a0e44624dca1dd52b7cb4f7f848e5ebb61"},
	"lunule/md":              {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"lunule/mdshared":        {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"lunule/nlp":             {"6718f1565ef8faf73d400356d63dc2fd29edf2d8e86c65b9cdedbb3791376b21", "5311d8ca8c1f4a9bab8f9727484b9d3f415ba21d452acbde937fec104c617cc4"},
	"lunule/web":             {"11d5f07624526adbe0280d7daee369268b07273ee1008df22806e96728a602f5", "47fc981542a661acd3f3910cecef04827fd806e469ef752550a7a2a412e44343"},
	"lunule/zipf":            {"eba41ff03a18e6580bf02568f3c512e03f9fe2ec508ee4ed36d4102a24c38672", "f2821897f6fef7a9478047d83c61cccd4a6ebff228158f88301d07da1f0b503b"},
	"lunule/zipf+crash":      {"5320bdddffd2ac54e44a217d3fbcc11fe3668826a349f605930f5959efe7bfb9", "a4721f8f8c0fbafa94ee1861cd439ee98d2a31f7620e8cdcd6645cbab44c8789"},
	"lunule/zipf+drain":      {"6ca26e16dc5dec74e83765e0c1a417f4c86ad01907e13ccd3b0038c09d1f76a2", "568c696ee5a240a50a9900a682156b20bb78563ec4349db9a8665ce1f118f2c0"},
	"vanilla/cnn":            {"1bd4d7a8c0a430560222c7bfe09e9bfab0d0b42310cbb7230ee7f6d0fbf6f361", "9b6e1387736d1e5f9b2eb354f3d51e3594d17f6e1403af832c02335f105c964d"},
	"vanilla/md":             {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"vanilla/mdshared":       {"1e93dabdce5a9f6f33a7b1692c1fe53c8c882e4c3477ecb572d819702e53fee1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"vanilla/nlp":            {"d7b8fcb6b0ab4b1e58a88aa8760545357b6bd64a9957ef5a54a96f51edd03448", "a677bbedeefee23ab2f276b13277e5add4195654410cc0abb9c14374a4b06e9f"},
	"vanilla/web":            {"8ed6336b06885c25d27839d8524023e5409ef430754f176ecfa350739376a530", "fea518f5376dce7c8ddf5fecaf77d3960c8cce46bb3c8293d56eae5fedce41f7"},
	"vanilla/zipf":           {"d6dbb2b6873dc103de641bee6efb830d07a0b7ffa7d08015aa831c964ff801fb", "074007aeb7a3840589473e8b3a29c0df6b097b22fb042796c96af3289b5a70f1"},
	"vanilla/zipf+crash":     {"1fc875101e084d6a8845ca0c6b081dbad1e8740c739999ec19730a1ed648e4cd", "5fb2ae814e29d734861f6505cc99faa86df42567bbf06af338c21af9f732921e"},
	"vanilla/zipf+drain":     {"2565d3879672696b63bf0be705169fbd8663c340a5dfedab9355eac2e4ec2f89", "9b0a572e893b1a0e4df26c1d3c29924869429ab4b9bd11c3764868a148bafa82"},
}
