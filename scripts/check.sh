#!/usr/bin/env bash
# Tier-1 verify, optionally under a sanitizer preset.
#
#   scripts/check.sh            # plain RelWithDebInfo build + ctest + bench JSON
#   scripts/check.sh tsan       # ThreadSanitizer build + ctest
#   scripts/check.sh asan       # Address+UB sanitizer build + ctest
#   scripts/check.sh all        # default, then tsan, then asan
#
# The tsan run is the gate for the ORB's concurrency code (listener thread
# reaping, connection pool, retry path); run it for any transport change.
#
# The default preset additionally runs bench_transport / bench_overhead in
# quick JSON mode and validates BENCH_*.json, so a broken machine-readable
# bench surface (schema drift, crash at exit, malformed output) fails the
# check even though the benches are not ctest targets. It also builds the
# end-to-end benchmark (perfbench) and runs its self-test.
set -euo pipefail
cd "$(dirname "$0")/.."

run_preset() {
  local preset="$1"
  echo "==> configure (${preset})"
  cmake --preset "${preset}"
  echo "==> build (${preset})"
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "==> test (${preset})"
  ctest --preset "${preset}" -j "$(nproc)"
}

# Runs one bench in quick JSON mode and validates the emitted document:
# well-formed JSON, expected bench name, non-empty case list, every case
# with a positive ops_per_sec. Extra arguments are passed to the bench
# binary (e.g. --reactor to select the serving-model sweep).
run_bench_json() {
  local bench="$1" name="$2" build_dir="build"
  shift 2
  if [[ ! -x "${build_dir}/bench/${bench}" ]]; then
    echo "==> bench ${bench}: missing (benchmark library not available?) — skipped"
    return 0
  fi
  echo "==> bench ${bench} $* --json --quick"
  local out="${build_dir}/BENCH_${name}.json"
  (cd "${build_dir}" && "bench/${bench}" "$@" --json="BENCH_${name}.json" --quick >/dev/null)
  python3 - "${out}" "${name}" <<'EOF'
import json, sys
path, name = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
assert doc["bench"] == name, f"bench name {doc['bench']!r} != {name!r}"
assert isinstance(doc["quick"], bool)
cases = doc["cases"]
assert cases, "no cases in bench output"
for case in cases:
    assert case["name"], "unnamed case"
    assert case["iterations"] > 0
    assert case["ops_per_sec"] > 0, f"{case['name']}: ops_per_sec not positive"
    ns = case["ns"]
    for key in ("mean", "min", "max", "p50", "p95", "p99"):
        assert ns[key] >= 0, f"{case['name']}: ns.{key} negative"
    assert ns["min"] <= ns["max"]
print(f"    {path}: {len(cases)} cases OK")
EOF
}

# Serving-model gate: runs the reactor-vs-thread-per-connection sweep (full
# iteration counts — the ratio gate needs stable percentiles, and --quick
# medians wobble on a busy machine) and asserts the two bounds the reactor
# migration promised: 64-client throughput at least 3x the threaded
# baseline, single-client p50 within 10% of it.
run_reactor_gate() {
  local build_dir="build"
  if [[ ! -x "${build_dir}/bench/bench_transport" ]]; then
    echo "==> reactor gate: bench_transport missing — skipped"
    return 0
  fi
  echo "==> bench bench_transport --reactor --json (serving-model gate)"
  (cd "${build_dir}" && bench/bench_transport --reactor --json="BENCH_reactor.json" >/dev/null)
  python3 - "${build_dir}/BENCH_reactor.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cases = {c["name"]: c for c in doc["cases"]}
for name in ("threaded_c1", "reactor_c1", "threaded_c64", "reactor_c64"):
    assert name in cases, f"missing sweep case {name}"

ops_threaded = cases["threaded_c64"]["ops_per_sec"]
ops_reactor = cases["reactor_c64"]["ops_per_sec"]
ratio = ops_reactor / ops_threaded
assert ratio >= 3.0, (
    f"reactor 64-client throughput only {ratio:.2f}x the threaded baseline "
    f"({ops_reactor:.0f} vs {ops_threaded:.0f} batches/s), need >= 3x")

p50_threaded = cases["threaded_c1"]["ns"]["p50"]
p50_reactor = cases["reactor_c1"]["ns"]["p50"]
regress = p50_reactor / p50_threaded - 1.0
assert regress < 0.10, (
    f"reactor single-client p50 regressed {regress * 100:.1f}% "
    f"({p50_reactor:.0f} vs {p50_threaded:.0f} ns), need < 10%")
print(f"    reactor gate OK: c64 throughput {ratio:.2f}x threaded, "
      f"c1 p50 {regress * 100:+.1f}%")
EOF
}

# Balancing gate: runs bench_lb (full iteration counts — the ratio gates
# compare p99s, which --quick leaves too noisy) and asserts the two bounds
# the lb subsystem promises with one replica degraded: p2c's p99 stays
# within 2x of its all-healthy baseline, and round-robin's p99 — which
# surfaces the degraded replica — is at least 3x worse than p2c's.
run_lb_gate() {
  local build_dir="build"
  if [[ ! -x "${build_dir}/bench/bench_lb" ]]; then
    echo "==> lb gate: bench_lb missing — skipped"
    return 0
  fi
  echo "==> bench bench_lb --json (balancing gate)"
  (cd "${build_dir}" && bench/bench_lb --json="BENCH_lb.json" >/dev/null)
  python3 - "${build_dir}/BENCH_lb.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cases = {c["name"]: c for c in doc["cases"]}
for name in ("sticky", "round_robin_degraded", "p2c_degraded", "p2c_healthy"):
    assert name in cases, f"missing lb case {name}"

p99_p2c = cases["p2c_degraded"]["ns"]["p99"]
p99_healthy = cases["p2c_healthy"]["ns"]["p99"]
ratio = p99_p2c / p99_healthy
assert ratio <= 2.0, (
    f"p2c p99 with one degraded replica is {ratio:.2f}x the all-healthy "
    f"baseline ({p99_p2c:.0f} vs {p99_healthy:.0f} ns), need <= 2x")

p99_rr = cases["round_robin_degraded"]["ns"]["p99"]
win = p99_rr / p99_p2c
assert win >= 3.0, (
    f"p2c p99 only {win:.2f}x better than round_robin under a degraded "
    f"replica ({p99_p2c:.0f} vs {p99_rr:.0f} ns), need >= 3x")
print(f"    lb gate OK: p2c degraded/healthy p99 {ratio:.2f}x, "
      f"round_robin/p2c p99 {win:.1f}x")
EOF
}

# Overload gate: runs bench_overload (full iteration counts) and asserts the
# three bounds the admission/deadline work promises: goodput at 2x offered
# load stays >= 70% of the at-capacity baseline (the queue absorbs, CoDel
# sheds, goodput must not collapse), shedding a request is >= 50x cheaper
# than executing one (~2 ms of work vs a pre-dispatch rejection), and the
# Luma strategy that watches orb.overload().shed_rate and downgrades request
# quality cuts the shed rate to <= 50% of the no-adaptation baseline.
run_overload_gate() {
  local build_dir="build"
  if [[ ! -x "${build_dir}/bench/bench_overload" ]]; then
    echo "==> overload gate: bench_overload missing — skipped"
    return 0
  fi
  echo "==> bench bench_overload --json (overload gate)"
  (cd "${build_dir}" && bench/bench_overload --json="BENCH_overload.json" >/dev/null)
  python3 - "${build_dir}/BENCH_overload.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cases = {c["name"]: c for c in doc["cases"]}
for name in ("capacity", "overload_2x", "exec_inproc", "shed_inproc",
             "adapt_before", "adapt_after"):
    assert name in cases, f"missing overload case {name}"

goodput = cases["overload_2x"]["extra"]["goodput_ops"]
capacity = cases["capacity"]["extra"]["goodput_ops"]
ratio = goodput / capacity
assert ratio >= 0.70, (
    f"goodput at 2x offered load is only {ratio * 100:.0f}% of capacity "
    f"({goodput:.0f} vs {capacity:.0f} ops/s), need >= 70%")

exec_ns = cases["exec_inproc"]["ns"]["mean"]
shed_ns = cases["shed_inproc"]["ns"]["mean"]
cheaper = exec_ns / shed_ns
assert cheaper >= 50.0, (
    f"shedding only {cheaper:.0f}x cheaper than executing "
    f"({shed_ns:.0f} vs {exec_ns:.0f} ns), need >= 50x")

before = cases["adapt_before"]["extra"]["shed_rate"]
after = cases["adapt_after"]["extra"]["shed_rate"]
assert before > 0.02, (
    f"adapt_before shed rate {before:.3f} too low to demonstrate overload")
assert after <= 0.5 * before, (
    f"strategy only cut shed rate from {before:.3f} to {after:.3f}, "
    f"need <= 50%")
print(f"    overload gate OK: 2x goodput {ratio * 100:.0f}% of capacity, "
      f"shed {cheaper:.0f}x cheaper than exec, "
      f"strategy shed rate {before:.3f} -> {after:.3f}")
EOF
}

# Extracts every R"LUMA(...)LUMA" block embedded in examples/ and tests/
# sources and runs the Luma static analyzer over it (shell policy, full
# native catalog). Any diagnostic at all fails the check: the in-repo
# corpus is required to lint clean. The extracted corpus is kept under
# build/luma_corpus/ and a SARIF report is emitted to build/lumalint.sarif
# (CI uploads it to code scanning).
run_luma_lint() {
  local build_dir="build"
  if [[ ! -x "${build_dir}/tools/lumalint" ]]; then
    echo "==> lumalint: binary missing — skipped"
    return 0
  fi
  echo "==> lumalint (embedded Luma blocks)"
  python3 - "${build_dir}" <<'EOF'
import json, pathlib, re, subprocess, sys
build = sys.argv[1]
corpus = pathlib.Path(build) / "luma_corpus"
corpus.mkdir(parents=True, exist_ok=True)
pattern = re.compile(r'R"LUMA\((.*?)\)LUMA"', re.S)
blocks = []
dirty = 0
for src in sorted(pathlib.Path("examples").glob("*.cpp")) + sorted(
        pathlib.Path("tests").glob("*.cpp")):
    for i, code in enumerate(pattern.findall(src.read_text())):
        path = corpus / f"{src.stem}_{i}.luma"
        path.write_text(code)
        blocks.append((src, i, str(path)))
        proc = subprocess.run([f"{build}/tools/lumalint", "--policy=shell", str(path)],
                              capture_output=True, text=True)
        report = (proc.stdout + proc.stderr).strip()
        if report:
            dirty += 1
            print(f"    {src} block {i}:")
            print("      " + report.replace(str(path) + ":", "").replace("\n", "\n      "))
# One SARIF document over the whole corpus for CI code-scanning upload.
sarif = pathlib.Path(build) / "lumalint.sarif"
if blocks:
    subprocess.run(
        [f"{build}/tools/lumalint", "--policy=shell", f"--sarif={sarif}"]
        + [b[2] for b in blocks],
        capture_output=True, text=True)
    json.load(open(sarif))  # must be well-formed
print(f"    {len(blocks)} embedded Luma blocks linted, {dirty} with diagnostics "
      f"(SARIF: {sarif})")
sys.exit(1 if dirty else 0)
EOF
}

# Static-analysis cost gate: the verdict cache must keep re-verification off
# the ingestion hot path (cache-hit throughput >= 5x cold analysis), and
# cold analysis of a ~4 KB script must stay under 50 ms p50.
run_luma_analysis_gate() {
  local build_dir="build"
  if [[ ! -f "${build_dir}/BENCH_luma_analysis.json" ]]; then
    echo "==> luma analysis gate: BENCH_luma_analysis.json missing — skipped"
    return 0
  fi
  python3 - "${build_dir}/BENCH_luma_analysis.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cases = {c["name"]: c for c in doc["cases"]}
for name in ("analyze_cold_aspect", "analyze_cold_4kb", "cache_hit"):
    assert name in cases, f"missing luma_analysis case {name}"

speedup = cases["cache_hit"]["ops_per_sec"] / cases["analyze_cold_aspect"]["ops_per_sec"]
assert speedup >= 5.0, (
    f"verdict cache hit only {speedup:.1f}x faster than cold analysis, need >= 5x")

p50_ms = cases["analyze_cold_4kb"]["ns"]["p50"] / 1e6
assert p50_ms < 50.0, (
    f"cold analysis of ~4KB script took {p50_ms:.1f} ms p50, need < 50 ms")
us_per_kb = cases["analyze_cold_4kb"]["ns"]["mean"] / 1e3 / 4.0
print(f"    luma analysis gate OK: cache hit {speedup:.0f}x cold, "
      f"~{us_per_kb:.0f} us/KB cold")
EOF
}

# Builds perfbench — its own CMake package compiling ../src, into
# .bench_build/perfbench — and runs its built-in checks, so a src/ change
# that breaks the benchmark's build or the API it drives fails here rather
# than only when the benchmark itself is run.
run_perfbench_selftest() {
  echo "==> perfbench --self-test"
  python3 perfbench/run.py --self-test
}

case "${1:-default}" in
  default)
    run_preset default
    run_luma_lint
    run_bench_json bench_transport transport
    run_bench_json bench_overhead overhead
    run_bench_json bench_events events
    run_bench_json bench_lb lb
    run_bench_json bench_luma_analysis luma_analysis
    run_bench_json bench_overload overload
    run_reactor_gate
    run_lb_gate
    run_luma_analysis_gate
    run_overload_gate
    run_perfbench_selftest
    ;;
  tsan|asan)
    run_preset "$1"
    ;;
  all)
    run_preset default
    run_luma_lint
    run_bench_json bench_transport transport
    run_bench_json bench_overhead overhead
    run_bench_json bench_events events
    run_bench_json bench_lb lb
    run_bench_json bench_luma_analysis luma_analysis
    run_bench_json bench_overload overload
    run_reactor_gate
    run_lb_gate
    run_luma_analysis_gate
    run_overload_gate
    run_perfbench_selftest
    run_preset tsan
    run_preset asan
    ;;
  *)
    echo "usage: $0 [default|tsan|asan|all]" >&2
    exit 2
    ;;
esac
echo "==> OK"
