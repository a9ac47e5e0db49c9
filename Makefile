GO ?= go
SMOKEDIR ?= /tmp/maxbrstknn-smoke
SHARDDIR ?= /tmp/maxbrstknn-shard-smoke
SHARD0ADDR ?= 127.0.0.1:18083
SHARD1ADDR ?= 127.0.0.1:18084
COORDADDR ?= 127.0.0.1:18085
SINGLEADDR ?= 127.0.0.1:18086

# Static analysis. lint-maxbr runs the project's own analyzer suite
# (cmd/maxbrlint) over the whole tree and fails on any diagnostic — there
# is no baseline file. lint-external adds staticcheck and govulncheck,
# pinned by version and run via `go run` so they never enter go.mod.
# LINT_EXTERNAL=auto (the default) probes the module proxy first and
# skips the external tools offline; CI sets LINT_EXTERNAL=1 to force
# them.
LINT_EXTERNAL ?= auto
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build vet fmt-check test race bench loc fma-check cli-smoke shard-smoke fuzz-smoke lint lint-maxbr lint-external ci

all: ci

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

# Formatting: vet, maxbrlint and staticcheck do not check it, so this
# fails on any file gofmt would rewrite.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "fmt-check: not gofmt-formatted:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

# The parallel query engine is gated on a clean race run.
race:
	$(GO) test -race ./...

# Short benchmark smoke: every benchmark must at least run once.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Go lines per package, non-test beside _test.go, and the non-test total
# — a tracked number that should go down (ROADMAP aim 2) — then the
# *_test.go total and its share of the non-test total.
loc:
	@find . -name '*.go' ! -path './internal/lint/testdata/*' ! -path './bench/.build/*' | xargs wc -l | awk '$$2=="total"{next}{d=$$2;sub("/[^/]*$$","",d);p[d];if($$2~/_test\.go$$/)t[d]+=$$1;else{n[d]+=$$1;s+=$$1}}END{print "code test package";for(d in p)print n[d]+0,t[d]+0,d | "sort -k3";close("sort -k3");print s" total"}'
	@code=$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/lint/testdata/*' ! -path './bench/.build/*' | xargs cat | wc -l); \
	tests=$$(find . -name '*_test.go' ! -path './bench/.build/*' | xargs cat | wc -l); \
	echo "$$tests tests ($$((100 * tests / code)) % of the non-test total)"

# Same bits on every GOARCH. Go may fuse x*y + z into one instruction
# with one rounding, and does on arm64, loong64, ppc64, ppc64le, riscv64
# and s390x (never on amd64), so a fused score, bound or generated
# coordinate would differ from amd64's. This cross-compiles every package
# but bench/ and examples/ for those targets and fails on any fused
# instruction in the assembly; a product that feeds a sum takes an
# explicit float64(...), which rounds it and prevents the fusion.
fma-check:
	@pkgs=$$($(GO) list ./... | grep -v '/bench$$\|/bench/\|/examples/'); status=0; \
	for arch in arm64 loong64 ppc64 ppc64le riscv64 s390x; do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S $$pkgs 2>&1) || { printf '%s\n' "$$asm" | grep -E '^[^[:space:]]*\.go:[0-9]'; exit 1; }; \
		fused=$$(printf '%s\n' "$$asm" | grep -E '\s(WFM[AS]DB|FN?M(ADD|SUB)[DFS]?)\s' | grep -oE '\([^)]*\)' | sort | uniq -c); \
		echo "fma-check: $$arch: $$(printf '%s' "$$fused" | awk '{n+=$$1}END{print n+0}') fused instructions"; \
		if [ -n "$$fused" ]; then printf '%s\n' "$$fused"; status=1; fi; \
	done; exit $$status

# Save/load CLI smoke: datagen → build a saved index → query it, and
# require the answer to match the in-memory one-shot pipeline. Guards the
# on-disk index format end to end.
cli-smoke:
	rm -rf $(SMOKEDIR) && mkdir -p $(SMOKEDIR)
	$(GO) build -o $(SMOKEDIR)/ ./cmd/...
	cd $(SMOKEDIR) && ./datagen -n 2000 -users 100 -locations 10 -out . >/dev/null
	cd $(SMOKEDIR) && ./maxbrstknn build -data . -out index.mxbr
	cd $(SMOKEDIR) && ./maxbrstknn query -index index.mxbr -data . -ws 2 -k 5 | tee query.out
	cd $(SMOKEDIR) && ./maxbrstknn -data . -ws 2 -k 5 | tee oneshot.out
	cd $(SMOKEDIR) && answer="$$(grep -F '|BRSTkNN|' oneshot.out)" && test -n "$$answer" \
		&& grep -F "$$answer" query.out >/dev/null \
		&& echo "cli-smoke: saved-index answer matches in-memory answer"
	rm -rf $(SMOKEDIR)

# Sharded serving smoke — the one process-level gate of maxbrserve's flag
# parsing (bench --quick serves every topology in-process and verifies
# answers and mutations). datagen → a saved index (maxbrstknn build) → a
# single server on it (-index), two shard servers (each re-derives the
# spatial plan from -data and builds only its slice) and a scatter-gather
# coordinator, as four real processes. Every query endpoint is hit through
# the coordinator and byte-compared (cmp) against the saved-index server —
# the sharded deployment's standing exactness guarantee — then the
# coordinator's /stats must show the scatter counters moving.
shard-smoke:
	rm -rf $(SHARDDIR) && mkdir -p $(SHARDDIR)
	$(GO) build -o $(SHARDDIR)/ ./cmd/...
	cd $(SHARDDIR) && ./datagen -n 2000 -users 100 -locations 10 -out . >/dev/null
	cd $(SHARDDIR) && ./maxbrstknn build -data . -out index.mxbr >/dev/null
	$(SHARDDIR)/maxbrserve -index $(SHARDDIR)/index.mxbr -addr $(SINGLEADDR) >$(SHARDDIR)/single.log 2>&1 & \
	spid=$$!; \
	$(SHARDDIR)/maxbrserve -data $(SHARDDIR) -shard 0/2 -addr $(SHARD0ADDR) >$(SHARDDIR)/shard0.log 2>&1 & \
	p0=$$!; \
	$(SHARDDIR)/maxbrserve -data $(SHARDDIR) -shard 1/2 -addr $(SHARD1ADDR) >$(SHARDDIR)/shard1.log 2>&1 & \
	p1=$$!; \
	$(SHARDDIR)/maxbrserve -coordinator -shards $(SHARD0ADDR),$(SHARD1ADDR) -addr $(COORDADDR) >$(SHARDDIR)/coord.log 2>&1 & \
	cpid=$$!; \
	trap 'kill $$spid $$p0 $$p1 $$cpid 2>/dev/null' EXIT; \
	set -e; \
	single=http://$(SINGLEADDR); coord=http://$(COORDADDR); \
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 $$single/healthz | grep -q '"status":"ok"'; \
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 http://$(SHARD0ADDR)/healthz | grep -q '"shard":0'; \
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 http://$(SHARD1ADDR)/healthz | grep -q '"shard":1'; \
	curl -sf --retry 20 --retry-all-errors --retry-delay 1 $$coord/healthz | grep -q '"status":"ok"'; \
	q='{"users":[{"x":25,"y":40,"keywords":["tag00000","tag00001"]},{"x":60,"y":70,"keywords":["tag00002"]}],"locations":[[25,40],[30,45],[70,80]],"keywords":["tag00000","tag00001"],"max_keywords":1,"k":3'; \
	for body in "$$q}" \
		"$$q,\"strategy\":\"approx\",\"parallel\":{\"workers\":2}}" \
		"$$q,\"strategy\":\"exact\",\"parallel\":{\"workers\":4,\"groups\":8}}" \
		"$$q,\"strategy\":\"exhaustive\"}"; do \
		curl -sf $$single/maxbrstknn -d "$$body" >$(SHARDDIR)/want.json; \
		curl -sf $$coord/maxbrstknn -d "$$body" >$(SHARDDIR)/got.json; \
		cmp $(SHARDDIR)/want.json $(SHARDDIR)/got.json; \
	done; \
	curl -sf $$single/topl -d "$$q,\"l\":2}" >$(SHARDDIR)/want.json; \
	curl -sf $$coord/topl -d "$$q,\"l\":2}" >$(SHARDDIR)/got.json; \
	cmp $(SHARDDIR)/want.json $(SHARDDIR)/got.json; \
	curl -sf $$single/multiple -d "$$q,\"m\":2}" >$(SHARDDIR)/want.json; \
	curl -sf $$coord/multiple -d "$$q,\"m\":2}" >$(SHARDDIR)/got.json; \
	cmp $(SHARDDIR)/want.json $(SHARDDIR)/got.json; \
	curl -sf $$single/topk -d '{"x":25,"y":40,"keywords":["tag00000"],"k":3}' >$(SHARDDIR)/want.json; \
	curl -sf $$coord/topk -d '{"x":25,"y":40,"keywords":["tag00000"],"k":3}' >$(SHARDDIR)/got.json; \
	cmp $(SHARDDIR)/want.json $(SHARDDIR)/got.json; \
	curl -sf $$coord/stats | grep -q '"wave1_visited":[1-9]'; \
	curl -sf $$coord/stats | grep -q '"served_queries":[1-9]'; \
	echo "shard-smoke: coordinator answers byte-identical to the saved-index server on every endpoint"
	rm -rf $(SHARDDIR)

lint: lint-maxbr lint-external

# The six project-specific analyzers (snapshotonce, immutablealias,
# pinpair, hotpathalloc, sentinelerr, exhaustiveenum) plus the
# //maxbr:ignore directive checks. Exit status 1 on any finding.
lint-maxbr:
	$(GO) run ./cmd/maxbrlint ./...

lint-external:
	@if [ "$(LINT_EXTERNAL)" = 0 ]; then \
		echo "lint-external: disabled (LINT_EXTERNAL=0)"; exit 0; \
	fi; \
	if [ "$(LINT_EXTERNAL)" = auto ] && ! $(GO) list -m -versions honnef.co/go/tools >/dev/null 2>&1; then \
		echo "lint-external: module proxy unreachable, skipping staticcheck + govulncheck (set LINT_EXTERNAL=1 to force)"; exit 0; \
	fi; \
	set -e; \
	echo "lint-external: staticcheck $(STATICCHECK_VERSION)"; \
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	echo "lint-external: govulncheck $(GOVULNCHECK_VERSION)"; \
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Bounded fuzz smoke: each codec fuzzer runs briefly (Go allows one
# -fuzz target per invocation). The seeds assert decode↔encode fixpoints,
# streaming-vs-decoded sum agreement, that the byte splice of one entry
# and the aggregate read off a record equal their decoded-file references
# (and fail exactly when decoding does), that the Composer writes the
# reference sort-then-encode's bytes for any term-ascending entry lists,
# and that an accepted node record
# re-encodes to itself; the committed testdata corpora replay past
# crashers as regression tests on every plain `go test` too. The three
# bound fuzzers hold every pruning bound to the exact score it bounds, bit
# for bit: UBL and the spatial bounds (textrel), the MIR-tree node bounds
# (topk) and the MIUR-tree entry bounds (core). FuzzOracle draws
# MaxBRSTkNN instances past TestOracleDifferential's seeds and holds every
# answer path to the brute-force oracle. FuzzMutations applies drawn write
# histories to both tree kinds and holds every stored posting to the
# entries after each write.
fuzz-smoke:
	$(GO) test ./internal/invfile/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/invfile/ -run '^$$' -fuzz '^FuzzDecodeSumsInto$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/invfile/ -run '^$$' -fuzz '^FuzzReplaceEntry$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/invfile/ -run '^$$' -fuzz '^FuzzAggregate$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/invfile/ -run '^$$' -fuzz '^FuzzCompose$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/irtree/ -run '^$$' -fuzz '^FuzzDecodeNode$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/irtree/ -run '^$$' -fuzz '^FuzzMutations$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/persist/ -run '^$$' -fuzz '^FuzzDecodeMaster$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/textrel/ -run '^$$' -fuzz '^FuzzBoundsDominate$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/topk/ -run '^$$' -fuzz '^FuzzNodeBoundsDominate$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzEntryBoundsDominate$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test . -run '^$$' -fuzz '^FuzzOracle$$' -fuzztime 10s -fuzzminimizetime 100x

ci: build vet fmt-check lint fma-check test race bench cli-smoke shard-smoke fuzz-smoke
