// perfbench --self-test: checks the harness arithmetic the metrics rest on
// and the metric names BENCHMARK.json declares (passed in by run.py).
// Exits 0 when every check passes, 1 otherwise (failures on stderr).
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "self-test FAILED: " << what << "\n";
  }
}

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  check(percentile(v, 50) == 50.0, "p50 of 1..100 is 50 (nearest rank)");
  check(percentile(v, 99) == 99.0, "p99 of 1..100 is 99");
  check(percentile(v, 100) == 100.0, "p100 is the maximum");
  std::vector<double> one = {7.0};
  check(percentile(one, 1) == 7.0 && percentile(one, 99) == 7.0, "one sample is every rank");
  std::vector<double> none;
  check(!percentile(none, 50).has_value(), "no samples, no percentile");
  std::vector<double> four = {4, 1, 3, 2};
  check(percentile(four, 50) == 2.0, "p50 of 4 samples is rank 2");
  check(percentile(four, 90) == 4.0, "p90 of 4 samples is rank 4");
  check(median({4, 1, 3, 2}) == 2.5 && median({3, 1, 2}) == 2.0, "median of even/odd counts");

  // Ten samples must lie beyond the reported rank.
  check(percentile_reportable(1000, 99), "p99 reportable at n=1000");
  check(!percentile_reportable(999, 99), "p99 not reportable at n=999");
  check(percentile_reportable(100, 90) && !percentile_reportable(99, 90),
        "p90 needs n >= 100");
  check(percentile_reportable(20, 50) && !percentile_reportable(19, 50), "p50 needs n >= 20");
  check(!percentile_reportable(0, 50), "nothing is reportable from no samples");
}

std::vector<uint64_t> sequence(uint64_t seed, uint64_t stream) {
  OpStream ops(seed, stream);
  std::vector<uint64_t> out;
  for (int i = 0; i < 64; ++i) {
    out.push_back(static_cast<uint64_t>(ops.uniform() * 1e6));
    out.push_back(ops.between(0, 1000));
    out.push_back(ops.zipf(40));
  }
  return out;
}

void determinism() {
  check(sequence(7, 0) == sequence(7, 0), "same seed, same op sequence");
  check(sequence(7, 0) != sequence(8, 0), "different seed, different op sequence");
  check(sequence(7, 0) != sequence(7, 1), "different client stream, different op sequence");
  OpStream ops(3, 0);
  std::vector<int> hits(40, 0);
  for (int i = 0; i < 20000; ++i) ++hits[ops.zipf(40)];
  check(hits[0] > hits[1] && hits[1] > hits[10] && hits[39] > 0, "zipf is skewed to low ranks");
}

Span span(int64_t parent, uint64_t start_us, uint64_t end_us) {
  return Span{"s", start_us * 1000, end_us * 1000, parent, 1};
}

void self_time() {
  // root [0,100] with children [10,30] and [20,50] (overlap counts once)
  // and a grandchild [12,14] that must not be subtracted from the root.
  std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 30), span(0, 20, 50),
                             span(1, 12, 14)};
  const std::vector<double> self = self_times_us(spans);
  check(self[0] == 60.0, "root self = 100 - union(10..50)");
  check(self[1] == 18.0, "child self = 20 - grandchild 2");
  check(self[2] == 30.0, "child self = its duration when it has no children");
  check(self[3] == 2.0, "leaf self = its duration");
  // A child sticking out of its parent only counts inside the parent.
  check(self_times_us({span(-1, 10, 20), span(0, 15, 40)})[0] == 5.0,
        "child clipped to the parent's interval");
  // Disjoint children add up.
  check(self_times_us({span(-1, 0, 10), span(0, 1, 2), span(0, 5, 8)})[0] == 6.0,
        "disjoint children both subtract");

  Tracer t;
  { ScopedSpan off(t, "off", 1); }
  check(t.snapshot().empty(), "a disabled tracer records nothing");
  t.set_enabled(true);
  {
    ScopedSpan outer(t, "outer", 9);
    ScopedSpan inner(t, "inner", 9);
  }
  const auto rec = t.snapshot();
  check(rec.size() == 2 && rec[1].parent == 0 && rec[0].parent == -1 && rec[1].op == 9,
        "nested scoped spans link to their parent and share the op id");
  check(rec.size() == 2 && rec[0].end_ns >= rec[1].end_ns, "the parent closes last");

  Tracer small(2);
  small.set_enabled(true);
  {
    ScopedSpan a(small, "a", 1);
    ScopedSpan b(small, "b", 1);
    ScopedSpan dropped(small, "c", 1);
  }
  { ScopedSpan after(small, "d", 2); }
  const auto kept = small.snapshot();
  check(kept.size() == 2 && kept[1].parent == 0 && kept[1].end_ns != 0,
        "a full tracer keeps its first spans and closes them");
}

void metric_names() {
  check(valid_metric_name("op_p50_us") && valid_metric_name("orb.wire-encode_ns") &&
            valid_metric_name("9lives"),
        "letters, digits, '_', '.', '-' are valid");
  check(!valid_metric_name("") && !valid_metric_name("_lead") && !valid_metric_name("a b") &&
            !valid_metric_name("a/b") && !valid_metric_name(std::string(65, 'a')),
        "empty, leading '_', spaces, '/', over 64 chars are invalid");
  check(split_names("a,b,,c") == std::vector<std::string>{"a", "b", "c"},
        "name lists split on commas");
  check(!check_metric_names(std::vector<std::string>(17, "x"), {"y"}).empty(),
        "17 end-to-end names are too many");
  std::vector<std::string> many;
  for (int i = 0; i < 129; ++i) {
    std::string name = "m";
    name += std::to_string(i);
    many.push_back(name);
  }
  check(!check_metric_names({"x"}, many).empty(), "129 per-layer names are too many");
  check(!check_metric_names({"x"}, {"x"}).empty(), "a name is used once");

  Result r;
  r.set("a", 1.5, "ms");
  check(r.to_json() ==
            R"({"correct": true, "attempted": 0, "failed": 0, "metrics": {"a": {"value": 1.5, "unit": "ms"}}})",
        "result line format");
}

void machine_speed() {
  check(slowdown(kReferenceNs) == 1.0, "the reference speed has slowdown 1");
  check(slowdown(2 * kReferenceNs) == 2.0 && slowdown(kReferenceNs / 2) == 0.5,
        "slowdown is the kernel's time over the reference time");
  check(slowdown(0) == 1.0, "no measurement, no correction");
  const double ns = reference().median_ns(3);
  check(ns > 0 && ns < 1e9, "the reference kernel runs and takes a plausible time");
}

}  // namespace

int self_test(const std::vector<std::string>& end_to_end,
              const std::vector<std::string>& per_layer) {
  percentiles();
  determinism();
  self_time();
  metric_names();
  machine_speed();
  const std::string declared = check_metric_names(end_to_end, per_layer);
  check(declared.empty(), "the declared names are valid: " + declared);
  if (g_failures == 0) std::cout << "perfbench self-test: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
