GO ?= go

.PHONY: all build test vet fmtcheck race check benchcheck pairs identity loc budget repin gobench audit fuzz elastic replication batched readstorm noisy

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmtcheck fails if any file is not gofmt-formatted.
fmtcheck:
	test -z "$$(gofmt -l .)"

race:
	$(GO) test -race ./...

# check is the full gate: compile, vet, formatting, and the test suite
# under the race detector (a cluster run is one goroutine; the race
# detector covers the experiment cell pool). The steady-state allocation contracts
# (alloc_test.go in internal/{namespace,mds,cluster,obs}) are built with
# !race, so check never reaches them; `make test` and CI's non-race
# "Alloc" step do.
check: build vet fmtcheck race

# benchcheck vets and tests the benchmark harness. benchmark/ has its
# own go.mod, so the root `./...` patterns above skip it.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# pairs measures the working tree against a parent revision on the
# BENCHMARK.json workloads matching WORKLOAD: N alternating pairs of
# driver runs, every run printed, then per end-to-end metric both
# medians, both inter-quartile ranges, the win count and the verdict
# (see scripts/pairs.sh; SEED0 and RUN_SECONDS pass through).
PARENT ?= HEAD
WORKLOAD ?= zipf_read
N ?= 10
pairs:
	bash scripts/pairs.sh '$(PARENT)' '$(WORKLOAD)' $(N)

# identity checks that the working tree's outputs equal a parent
# revision's: the benchmark run digests at seeds 42 and 7, `-exp all
# -scale 0.5` without timing lines, two lunule-sim traces (the
# write-back one compared within each tick) and their stdout. It fails
# on any difference (see scripts/identity.sh).
identity:
	bash scripts/identity.sh '$(PARENT)'

# loc prints the code size the simplicity PRs report: non-blank,
# non-comment, non-test Go lines per package under internal/, their
# total, and the package count.
loc:
	@total=0; pkgs=0; for d in internal/*/; do \
		n=$$(ls $$d*.go | grep -v _test.go | xargs cat | grep -cv '^[[:space:]]*\(//.*\)\?$$'); \
		printf '%-22s %5d\n' $${d%/} $$n; total=$$((total+n)); pkgs=$$((pkgs+1)); \
	done; printf '%-22s %5d  (%d packages)\n' internal/ $$total $$pkgs

# budget fails when the tree outgrows ROADMAP's standing budgets:
# internal/cluster <= 2250 and internal/ <= 11500 code lines (as loc
# counts them) in at most 20 packages.
budget:
	@$(MAKE) -s loc | awk '{ print } \
		$$1 == "internal/cluster" && $$2 > 2250 { print "budget: internal/cluster over 2250 code lines"; bad = 1 } \
		$$1 == "internal/" && $$2 > 11500 { print "budget: internal/ over 11500 code lines"; bad = 1 } \
		$$1 == "internal/" && substr($$3, 2) + 0 > 20 { print "budget: internal/ over 20 packages"; bad = 1 } \
		END { exit bad }'

# repin re-records every pinned output from the working tree — the
# testdata/digests.txt ledgers of internal/{cluster,experiment,rng} and
# lunule-sim's golden report, through the tests' one -update flag —
# then prints the git diff --stat of those files and the names of the
# pins that moved. A change not meant to alter model output prints
# nothing.
PINNED = ./internal/cluster ./internal/experiment ./internal/rng ./cmd/lunule-sim
repin:
	@out=$$($(GO) test -count=1 $(PINNED) -update 2>&1) || { echo "$$out"; exit 1; }
	@git diff --stat -- $(PINNED:./%=%/testdata)
	@git diff -U0 -- $(PINNED:./%=%/testdata) | sed -n 's/^+\([^+# ][^ ]*\) [0-9a-f]\{64\}$$/\1/p'

# elastic runs the audited autoscaler suite: the diurnal-wave experiment
# (elastic vs static fleets) plus an audited scale-up/drain-down smoke of
# the CLI — one full 4 -> 8 -> 4 cycle that must exit clean.
elastic:
	$(GO) run ./cmd/lunule-bench -exp elastic -audit
	$(GO) run ./cmd/lunule-sim -elastic -mds 4 -clients 48 -audit -audit-every-tick -maxticks 8000 >/dev/null

# replication runs the audited warm-standby suite: the R=1/2/3 churn
# experiment (warm promotion vs cold takeover) plus an audited R=2 CLI
# smoke with a partition-scoped crash — both must exit clean.
replication:
	$(GO) run ./cmd/lunule-bench -exp replication -audit
	$(GO) run ./cmd/lunule-sim -replication 2 -mds 5 -clients 16 -mtbf 300 -mttr 60 -recoveryticks 30 -audit -audit-every-tick -maxticks 2000 >/dev/null

# batched runs the audited write-back batching suite: the sync vs
# write-back JCT experiment (MDtest + CNN ingest) plus an audited
# write-back MDtest CLI smoke — both must exit clean.
batched:
	$(GO) run ./cmd/lunule-bench -exp batched -audit
	$(GO) run ./cmd/lunule-sim -workload md -batch-size 32 -flush-every 8 -mds 4 -clients 32 -scale 0.2 -audit -audit-every-tick -maxticks 3000 >/dev/null

# readstorm runs the audited lease-based read-replica suite: the
# shared-directory read-storm experiment (leases vs pure migration vs
# vanilla) plus an audited lease-enabled CLI smoke — both must exit
# clean.
readstorm:
	$(GO) run ./cmd/lunule-bench -exp readstorm -audit
	$(GO) run ./cmd/lunule-sim -workload readstorm -replication 3 -lease-ticks 40 -mds 5 -clients 40 -scale 0.5 -audit -audit-every-tick -maxticks 3000 >/dev/null

# noisy runs the audited multi-tenant QoS suite: the noisy-neighbor
# isolation experiment (per-tenant token buckets vs unprotected
# balancing, reduced scale so the audited run stays fast) plus an
# audited skewed-tenant CLI smoke — both must exit clean.
noisy:
	$(GO) run ./cmd/lunule-bench -exp noisy -audit -scale 0.25
	$(GO) run ./cmd/lunule-sim -tenants 4 -tenant-rate 600 -tenant-burst 1200 -mds 4 -clients 24 -audit -audit-every-tick -maxticks 3000 >/dev/null

# gobench runs the in-package Go micro-benchmarks.
gobench:
	$(GO) test -bench=. -benchmem ./...

# fuzz smokes each fuzz target for a short budget with the invariant
# checks (for the event encoder: encoding/json's output; for the trace
# parser: error-or-replayable, never a panic; for the fault-spec parser:
# error-or-round-trip, never a panic) as the oracle (long campaigns:
# raise FUZZTIME).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzPartitionOps -fuzztime=$(FUZZTIME) ./internal/audit
	$(GO) test -fuzz=FuzzFragSplitMerge -fuzztime=$(FUZZTIME) ./internal/audit
	$(GO) test -fuzz=FuzzMigratorLifecycle -fuzztime=$(FUZZTIME) ./internal/audit
	$(GO) test -fuzz=FuzzAppendJSONValue -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -fuzz=FuzzParseSpecs -fuzztime=$(FUZZTIME) ./internal/fault

# audit runs the audited failover suite (every experiment run carries
# the state auditor; any invariant violation fails) plus the fuzz smoke.
audit: fuzz
	$(GO) run ./cmd/lunule-bench -exp failover,overhead -audit
	$(GO) run ./cmd/lunule-sim -audit -audit-every-tick -mtbf 300 -mttr 60 -mds 8 -maxticks 800 >/dev/null
