# Build/verify targets. `make check` is the extended verify command
# recorded in ROADMAP.md: build + full tests + race on the concurrent
# packages + vet + a short fuzz smoke over the parsers.

GO ?= go

.PHONY: build test race vet fuzz-smoke check bench bench-smoke bench-check resume-smoke trace-smoke serve-smoke interact-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The crawler worker pool, the obs registry, the evidence event sink,
# the fault model, the bundle layer, the parallel analysis executor +
# memo cache (with detect underneath it), the checkpoint writer, the
# snapshot store, the exemplar reservoir (offered from workers, read by
# /tracez), and the ops plane (status tracker, window sampler, live
# HTTP handlers) are the places goroutines share state; hammer them
# under the race detector. internal/dom rides along because every
# crawl worker drives its own event loop — the race detector proves
# the loops really are confined to their workers. internal/jsvm rides
# along because crawler workers share compiled programs through the
# parse cache: TestSharedProgramConcurrent runs one Program on several
# interpreters at once.
race:
	$(GO) test -race ./internal/crawler ./internal/dom ./internal/jsvm ./internal/obs ./internal/obs/event ./internal/obs/window ./internal/obs/ops ./internal/obs/tracez ./internal/netsim ./internal/bundle ./internal/analysis ./internal/detect ./internal/checkpoint ./internal/snapshot ./internal/serve ./internal/distrib

vet:
	$(GO) vet ./...

# fuzz-smoke gives each parser fuzzer a short budget — enough to catch
# regressions in the URL and filter-rule grammars without stalling CI.
# Longer sessions: go test -fuzz FuzzParseRule -fuzztime 5m ./internal/blocklist
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzParseURL -fuzztime 10s ./internal/netsim
	$(GO) test -run XXX -fuzz FuzzParseRule -fuzztime 10s ./internal/blocklist
	$(GO) test -run XXX -fuzz FuzzClassifyRequest -fuzztime 10s ./internal/serve
	$(GO) test -run XXX -fuzz FuzzBlockQuery -fuzztime 10s ./internal/serve
	$(GO) test -run XXX -fuzz FuzzMergePartialBundles -fuzztime 10s ./internal/distrib
	$(GO) test -run XXX -fuzz FuzzParseProfile -fuzztime 10s ./internal/crawler

check: build test race vet fuzz-smoke bench-smoke bench-check resume-smoke trace-smoke serve-smoke interact-smoke

# resume-smoke is the shell-level half of the resume oracle (the Go
# half is TestResumeOracle): every checkpoint consumer must reproduce
# an uninterrupted run byte for byte across a process boundary, checked
# with cmp. Three cases:
#   1. repro, a one-partition checkpointed study, interrupted by
#      -interrupt-after (exit 3) and finished with -resume;
#   2. coordinator, a 4-partition study over spawned
#      `crawl -distrib-unit` worker processes, whose ledger must show a
#      clean run (no failed units);
#   3. crawl -checkpoint, a standalone checkpointed crawl, interrupted
#      at page 300/800 and finished with -resume into the same JSONL.
SMOKE := .resume-smoke
resume-smoke:
	rm -rf $(SMOKE)
	mkdir -p $(SMOKE)
	$(GO) build -o $(SMOKE)/repro ./cmd/repro
	$(GO) build -o $(SMOKE)/coordinator ./cmd/coordinator
	$(GO) build -o $(SMOKE)/crawl ./cmd/crawl
	$(SMOKE)/repro -seed 11 -scale 0.02 -exp compare -outdir $(SMOKE)/ref >/dev/null
	$(SMOKE)/repro -seed 11 -scale 0.02 -exp compare -checkpoint $(SMOKE)/ckpt -checkpoint-every 100 -snapshots -interrupt-after 4 >/dev/null; \
	  status=$$?; [ $$status -eq 3 ] || { echo "resume-smoke: expected exit 3 from the interrupted run, got $$status"; exit 1; }
	$(SMOKE)/repro -resume $(SMOKE)/ckpt -exp compare -outdir $(SMOKE)/resumed >/dev/null
	cmp $(SMOKE)/ref/manifest.json $(SMOKE)/resumed/manifest.json
	cmp $(SMOKE)/ref/events.jsonl $(SMOKE)/resumed/events.jsonl
	cmp $(SMOKE)/ref/report.txt $(SMOKE)/resumed/report.txt
	cmp $(SMOKE)/ref/metrics.deterministic.json $(SMOKE)/resumed/metrics.deterministic.json
	$(SMOKE)/coordinator -seed 11 -scale 0.02 -adblock -m1 -partitions 4 -slots 3 -dir $(SMOKE)/run -worker $(SMOKE)/crawl -compare -out $(SMOKE)/dist >$(SMOKE)/ledger.txt 2>/dev/null
	grep -q "16 units, 16 done, 0 failed" $(SMOKE)/ledger.txt
	cmp $(SMOKE)/ref/manifest.json $(SMOKE)/dist/manifest.json
	cmp $(SMOKE)/ref/events.jsonl $(SMOKE)/dist/events.jsonl
	cmp $(SMOKE)/ref/report.txt $(SMOKE)/dist/report.txt
	cmp $(SMOKE)/ref/metrics.deterministic.json $(SMOKE)/dist/metrics.deterministic.json
	$(SMOKE)/crawl -seed 11 -scale 0.02 -out $(SMOKE)/crawl-ref.jsonl 2>/dev/null
	$(SMOKE)/crawl -seed 11 -scale 0.02 -checkpoint $(SMOKE)/crawl-ckpt -checkpoint-every 100 -interrupt-after 3 -out $(SMOKE)/crawl-cut.jsonl 2>$(SMOKE)/crawl-cut.txt; \
	  status=$$?; [ $$status -eq 3 ] || { echo "resume-smoke: expected exit 3 from the interrupted crawl, got $$status"; exit 1; }
	grep -q "interrupted at page 300/800" $(SMOKE)/crawl-cut.txt
	$(SMOKE)/crawl -resume $(SMOKE)/crawl-ckpt -out $(SMOKE)/crawl-resumed.jsonl 2>/dev/null
	test $$(wc -l < $(SMOKE)/crawl-resumed.jsonl) -eq 800
	cmp $(SMOKE)/crawl-ref.jsonl $(SMOKE)/crawl-resumed.jsonl
	rm -rf $(SMOKE)
	@echo "resume-smoke: resumed repro, 4-partition coordinator, and resumed crawl all match their uninterrupted runs byte for byte"

# trace-smoke is the shell-level tracescope check: run a small traced
# study with -outdir, then require tracescope to produce a critical
# path and a non-empty exemplar reservoir from the run dir. A second
# run without -tracez has no exemplar sidecar, so tracescope must get
# the critical path from trace.jsonl alone.
TSMOKE := .trace-smoke
trace-smoke:
	rm -rf $(TSMOKE)
	mkdir -p $(TSMOKE)
	$(GO) build -o $(TSMOKE)/repro ./cmd/repro
	$(GO) build -o $(TSMOKE)/tracescope ./cmd/tracescope
	$(TSMOKE)/repro -seed 5 -scale 0.02 -exp compare -tracez -outdir $(TSMOKE)/run >/dev/null
	test -s $(TSMOKE)/run/trace_exemplars.jsonl
	$(TSMOKE)/tracescope $(TSMOKE)/run | grep -q "Critical path: crawl"
	$(TSMOKE)/tracescope $(TSMOKE)/run | grep -q "Slowest visits"
	$(TSMOKE)/tracescope -folded $(TSMOKE)/folded.txt $(TSMOKE)/run >/dev/null 2>&1
	grep -q "^visits;control;visit" $(TSMOKE)/folded.txt
	$(TSMOKE)/repro -seed 5 -scale 0.02 -exp compare -outdir $(TSMOKE)/plain >/dev/null
	test ! -e $(TSMOKE)/plain/trace_exemplars.jsonl
	$(TSMOKE)/tracescope $(TSMOKE)/plain | grep -q "Critical path: crawl"
	rm -rf $(TSMOKE)
	@echo "trace-smoke: tracescope reports a critical path and exemplar visits from a traced run dir, and a critical path from trace.jsonl alone"

# serve-smoke is the shell-level check on the verdict service: run a
# small study, serve its bundle on a free port, probe every endpoint
# with `serve -check`, and diff the responses against the committed
# expectation. A drift here means the API's bytes changed — update
# testdata/serve_smoke.expected deliberately if so.
VSMOKE := .serve-smoke
serve-smoke:
	rm -rf $(VSMOKE)
	mkdir -p $(VSMOKE)
	$(GO) build -o $(VSMOKE)/repro ./cmd/repro
	$(GO) build -o $(VSMOKE)/serve ./cmd/serve
	$(VSMOKE)/repro -seed 11 -scale 0.02 -exp compare -outdir $(VSMOKE)/run >/dev/null
	$(VSMOKE)/serve -bundle $(VSMOKE)/run -addr 127.0.0.1:0 -addr-file $(VSMOKE)/addr >$(VSMOKE)/banner.txt 2>/dev/null & echo $$! > $(VSMOKE)/pid
	for i in $$(seq 1 100); do [ -s $(VSMOKE)/addr ] && break; sleep 0.1; done; [ -s $(VSMOKE)/addr ] || { kill $$(cat $(VSMOKE)/pid) 2>/dev/null; echo "serve-smoke: server never published its address"; exit 1; }
	$(VSMOKE)/serve -check $$(cat $(VSMOKE)/addr) > $(VSMOKE)/out.txt; status=$$?; kill $$(cat $(VSMOKE)/pid) 2>/dev/null; [ $$status -eq 0 ]
	grep -q "canvassing verdict service" $(VSMOKE)/banner.txt
	diff testdata/serve_smoke.expected $(VSMOKE)/out.txt
	rm -rf $(VSMOKE)
	@echo "serve-smoke: every verdict endpoint answers byte-identically to the committed expectation"

# interact-smoke is the shell-level half of the interaction-engine
# contract (the Go halves are TestInteractDispatchWidthInvariance and
# TestInteractOffLeavesNoResidue): the EX3 experiment must report a
# nonzero interaction-only fingerprinter population, and a run without
# -interact must leave zero engine residue in its bundle artifacts.
ISMOKE := .interact-smoke
interact-smoke:
	rm -rf $(ISMOKE)
	mkdir -p $(ISMOKE)
	$(GO) build -o $(ISMOKE)/repro ./cmd/repro
	$(ISMOKE)/repro -seed 11 -scale 0.02 -exp ex3 -out $(ISMOKE)/ex3.txt >/dev/null
	grep -q "interaction-only fp sites:" $(ISMOKE)/ex3.txt
	! grep -q "interaction-only fp sites: 0 " $(ISMOKE)/ex3.txt
	$(ISMOKE)/repro -seed 11 -scale 0.02 -exp compare -outdir $(ISMOKE)/plain >/dev/null
	! grep -qi "interact" $(ISMOKE)/plain/events.jsonl
	! grep -qi "interact" $(ISMOKE)/plain/report.txt
	! grep -qi "interact" $(ISMOKE)/plain/metrics.json
	rm -rf $(ISMOKE)
	@echo "interact-smoke: EX3 reports interaction-only fingerprinters and the engine leaves no residue when off"

# bench runs every benchmark once and writes a dated JSON snapshot
# (BENCH_2026-08-05.json style) next to the human-readable stream.
bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./... | $(GO) run ./cmd/benchjson -out BENCH_$$(date +%Y-%m-%d).json

# bench-smoke just proves every benchmark still runs (no snapshot).
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./... >/dev/null

# bench-check is the regression gate: first a self-test (a synthesized
# 10x slowdown of the committed baseline MUST trip the gate), then a
# fresh -benchtime 1x run compared against the newest committed
# BENCH_<date>.json. Thresholds live in cmd/benchdiff (loose by design:
# 1-iteration timings are noisy; only >=100µs baselines are gated).
# Override the fresh snapshot path with NEW=..., the baseline with
# BENCH_BASELINE=....
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
NEW ?= .bench-new.json
bench-check:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-check: no BENCH_<date>.json baseline committed; run 'make bench' and commit it"; exit 1; }
	@if $(GO) run ./cmd/benchdiff -synthesize 10 $(BENCH_BASELINE) >/dev/null; then \
	  echo "bench-check: gate self-test FAILED (synthesized 10x regression passed)"; exit 1; \
	else echo "bench-check: gate self-test ok (synthesized regression trips the gate)"; fi
	$(GO) test -run XXX -bench . -benchtime 1x ./... | $(GO) run ./cmd/benchjson -out $(NEW)
	$(GO) run ./cmd/benchdiff $(BENCH_BASELINE) $(NEW)
	@rm -f $(NEW)
