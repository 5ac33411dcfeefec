# CI entry points.  `make check` is what the pipeline runs on every
# change: a full build plus the tier-1 test suite.

.PHONY: check build test test-hashseed oracle lint analyze-smoke plan-smoke policy-smoke bench bench-smoke chaos-smoke scale-smoke serve-smoke examples-smoke clean

check: build test

build:
	dune build

test:
	dune runtest

# The suite again under randomised hash seeds: every verdict, digest and
# report must come from the code, not from the stdlib Hashtbl's default
# seed.
test-hashseed: build
	OCAMLRUNPARAM=R dune runtest --force

# The differential test on larger fleets: semi-naive OSPF and pruned
# all_paths must agree exactly with the reference oracles in test/oracle/,
# and the address index with the Network scan (`dune runtest` covers the
# paper networks and k=4).
oracle: build
	dune exec test/oracle/differential.exe -- fat-tree:k=6 leaf-spine:spines=4:leaves=16 multi-campus:campuses=4:buildings=4

# Static analysis over the evaluation networks: any error-severity
# finding makes the CLI (and therefore this target) exit non-zero.
lint: build
	dune exec bin/heimdall_cli.exe -- lint enterprise
	dune exec bin/heimdall_cli.exe -- lint university --severity error

# Semantic analysis smoke: both evaluation networks must come out free
# of error-severity findings, and the seeded union-shadow defect — which
# only the packet-set algebra can see — must flip the exit code and
# report ACL004.
analyze-smoke: build
	dune exec bin/heimdall_cli.exe -- analyze enterprise
	dune exec bin/heimdall_cli.exe -- analyze university
	out=$$(mktemp); \
	  ! dune exec bin/heimdall_cli.exe -- analyze enterprise --seed-defect > $$out && \
	  grep -q ACL004 $$out; status=$$?; rm -f $$out; exit $$status
	dune exec bench/main.exe -- sem

# Plan-analysis smoke: the static pre-flight must be sound on every
# scenario ticket (predicted delta contains the exact replay diff, the
# privilege verdict agrees with replay), the clean scenarios must show
# no plan conflicts, and a deliberately seeded overlapping ticket must
# be detected and held.
plan-smoke: build
	dune exec bin/heimdall_cli.exe -- analyze enterprise --plan
	dune exec bin/heimdall_cli.exe -- analyze university --plan
	dune exec bin/heimdall_cli.exe -- conflicts enterprise
	dune exec bin/heimdall_cli.exe -- conflicts university
	out=$$(mktemp); \
	  ! dune exec bin/heimdall_cli.exe -- conflicts enterprise --seed-overlap > $$out && \
	  grep -q "plan.conflict" $$out; status=$$?; rm -f $$out; exit $$status

# Policy-tree smoke: both paper networks and a generated fleet must
# compile and analyse clean (POL004 proves the tree equivalent to the
# flat spec), a seeded parent/child contradiction must flip the exit
# code and report POL001, and the rule registry printed by --list-rules
# must match the expected family count.
policy-smoke: build
	dune exec bin/heimdall_cli.exe -- policy enterprise
	dune exec bin/heimdall_cli.exe -- policy university
	dune exec bin/heimdall_cli.exe -- policy fleet:fat-tree:k=4
	out=$$(mktemp); \
	  ! dune exec bin/heimdall_cli.exe -- policy enterprise --seed-defect pol001 > $$out && \
	  grep -q POL001 $$out; status=$$?; rm -f $$out; exit $$status
	dune exec bin/heimdall_cli.exe -- lint --list-rules | grep -q "35 rules in 6 families"
	dune exec bench/main.exe -- poltree

bench:
	dune exec bench/main.exe

# The two report sections CI persists on every run: static-analysis and
# verify-engine wall times, merged by key into bench/report.json (so one
# section never clobbers the other).  The engine report is also a gate —
# it exits non-zero unless verdicts are byte-identical across domain
# counts, the dataplane caches actually hit, a warm persistent cache
# rebuilds nothing, and the N-domain sweep beats 1 domain (speedup
# criterion skipped, and recorded as skipped, on single-core hosts).
bench-smoke: build
	dune exec bench/main.exe -- lint engine

# Seeded fault-injection run over the enterprise issues: exits non-zero
# unless every issue resolves with zero surviving policy violations and
# a verifying audit trail, then persists the "chaos" report section.
chaos-smoke: build
	dune exec bin/heimdall_cli.exe -- chaos enterprise --seed 42
	dune exec bench/main.exe -- chaos

# Fleet-scale smoke: generate a seeded fat-tree and run the whole
# lint → twin → verify → schedule → audit pipeline over it.  The CLI
# exits non-zero on nondeterministic regeneration, lint errors, policy
# violations, cross-domain verdict drift or an unresolved issue; the
# `bench scale` section then persists walls, peak RSS and cache stats
# at three sizes (largest 500+ devices) into bench/report.json.
scale-smoke: build
	dune exec bin/heimdall_cli.exe -- scale --spec fat-tree:k=4:seed=42
	dune exec bin/heimdall_cli.exe -- scale --spec leaf-spine:spines=4:leaves=8:seed=7 --no-issues
	dune exec bench/main.exe -- scale

# Watchtower smoke: `serve --once` replays the scenario into the live
# registry, runs a clean -> injected-drift -> clear monitor cycle, then
# scrapes its own /metrics, /healthz, /metrics.json, /spans and /events
# over real HTTP (stdlib client) and exits non-zero when any required
# series or drift transition is missing.  The obs bench gates
# instrumentation overhead at 10% and persists the "obs" report section.
serve-smoke: build
	dune exec bin/heimdall_cli.exe -- serve enterprise --once --port 0
	dune exec bench/main.exe -- obs

# Examples smoke: the examples are the library facade's only callers, so
# each must build and exit 0.
EXAMPLES = quickstart troubleshoot_ospf attack_containment custom_network emergency_mode

examples-smoke: build
	for e in $(EXAMPLES); do dune exec examples/$$e.exe > /dev/null || exit 1; done

clean:
	dune clean
