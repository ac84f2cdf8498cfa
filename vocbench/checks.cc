#include "checks.h"

#include <algorithm>
#include <cmath>

namespace vocbench {

std::size_t WordEditDistance(const std::vector<std::string>& ref,
                             const std::vector<std::string>& hyp) {
  // Two-row dynamic program over (prefix of ref, prefix of hyp).
  std::vector<std::size_t> prev(hyp.size() + 1), cur(hyp.size() + 1);
  for (std::size_t j = 0; j <= hyp.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= ref.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= hyp.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (ref[i - 1] == hyp[j - 1] ? 0 : 1);
      cur[j] = std::min({sub, prev[j] + 1, cur[j - 1] + 1});
    }
    std::swap(prev, cur);
  }
  return prev[hyp.size()];
}

WilsonBounds Wilson(std::size_t k, std::size_t n, double z) {
  if (n == 0) return {0, 1};
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(k) / nn;
  const double z2 = z * z;
  const double scale = 1.0 + z2 / nn;
  const double mid = p + z2 / (2.0 * nn);
  const double spread = z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn));
  WilsonBounds b;
  b.lower = std::max(0.0, (mid - spread) / scale);
  b.upper = std::min(1.0, (mid + spread) / scale);
  return b;
}

double EqnFourLowerBound(std::size_t n_cell, std::size_t n_row,
                         std::size_t n_col, std::size_t n, double z) {
  if (n_cell == 0 || n_row == 0 || n_col == 0 || n == 0) return 0;
  const double denom = Wilson(n_row, n, z).upper * Wilson(n_col, n, z).upper;
  if (denom <= 0) return 0;
  return Wilson(n_cell, n, z).lower / denom;
}

double RelDiff(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

void KeyTally::Add(uint64_t doc, const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    std::vector<uint64_t>& docs = keys_[key];
    if (docs.empty() || docs.back() != doc) docs.push_back(doc);
  }
}

std::size_t KeyTally::Count(const std::string& key) const {
  auto it = keys_.find(key);
  return it == keys_.end() ? 0 : it->second.size();
}

std::size_t KeyTally::CountBoth(const std::string& a,
                                const std::string& b) const {
  return Intersection({a, b}).size();
}

std::vector<uint64_t> KeyTally::DocsWithAll(
    const std::vector<std::string>& keys, std::size_t limit) const {
  const std::vector<uint64_t>& all = Intersection(keys);
  return {all.begin(), all.begin() + std::min(limit, all.size())};
}

const std::vector<uint64_t>& KeyTally::Intersection(
    const std::vector<std::string>& keys) const {
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  auto [slot, fresh] = memo_.try_emplace(sorted);
  if (!fresh || keys.empty()) return slot->second;
  std::vector<const std::vector<uint64_t>*> lists;
  for (const std::string& key : sorted) {
    auto it = keys_.find(key);
    if (it == keys_.end()) return slot->second;
    lists.push_back(&it->second);
  }
  std::sort(lists.begin(), lists.end(),
            [](auto* a, auto* b) { return a->size() < b->size(); });
  for (uint64_t doc : *lists[0]) {
    bool all = true;
    for (std::size_t i = 1; i < lists.size() && all; ++i) {
      all = std::binary_search(lists[i]->begin(), lists[i]->end(), doc);
    }
    if (all) slot->second.push_back(doc);
  }
  return slot->second;
}

std::vector<std::string> KeyTally::KeysWithPrefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [key, entry] : keys_) {
    if (key.compare(0, prefix.size(), prefix) == 0) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> SelfTest() {
  std::vector<std::string> failures;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) failures.push_back(what);
  };
  using W = std::vector<std::string>;

  // Word edit distance.
  expect(WordEditDistance(W{"a", "b", "c"}, W{"a", "b", "c"}) == 0,
         "edit distance: identical");
  expect(WordEditDistance(W{"a", "b", "c"}, W{"a", "c"}) == 1,
         "edit distance: one deletion");
  expect(WordEditDistance(W{"a", "c"}, W{"a", "b", "c"}) == 1,
         "edit distance: one insertion");
  expect(WordEditDistance(W{"a", "b", "c"}, W{"a", "x", "c"}) == 1,
         "edit distance: one substitution");
  expect(WordEditDistance(W{}, W{"a", "b"}) == 2, "edit distance: empty ref");
  expect(WordEditDistance(W{"a", "b"}, W{}) == 2, "edit distance: empty hyp");
  expect(WordEditDistance(W{"the", "cat", "sat"}, W{"cat", "sat", "on"}) == 2,
         "edit distance: shifted sentence");
  expect(WordEditDistance(W{"a", "b"}, W{"b", "a"}) == 2,
         "edit distance: swapped pair");

  // Wilson interval: the textbook 95% interval of 20/100 is
  // [0.1334, 0.2888].
  const WilsonBounds w = Wilson(20, 100);
  expect(std::fabs(w.lower - 0.1334) < 1e-4, "wilson: lower of 20/100");
  expect(std::fabs(w.upper - 0.2888) < 1e-4, "wilson: upper of 20/100");
  expect(Wilson(0, 10).lower == 0.0, "wilson: lower clamps at 0");
  expect(Wilson(10, 10).upper == 1.0, "wilson: upper clamps at 1");

  // Eqn 4 lower bound: 0.13337 / (wilson_upper(40/100) *
  // wilson_upper(30/100)) = 0.13337 / (0.4999 * 0.3946) = 0.6765.
  expect(std::fabs(EqnFourLowerBound(20, 40, 30, 100) - 0.6765) < 1e-3,
         "eqn4: hand-computed cell");
  expect(EqnFourLowerBound(0, 40, 30, 100) == 0.0, "eqn4: empty cell is 0");
  expect(EqnFourLowerBound(5, 10, 10, 1000) < 5.0 * 1000 / (10.0 * 10.0),
         "eqn4: lower bound below the point lift");

  // Tally: docs {a,b}, {a}, {b,c}, {a,b,c}.
  KeyTally t;
  t.Add(0, {"a", "b"});
  t.Add(1, {"a"});
  t.Add(2, {"b", "c"});
  t.Add(3, {"a", "b", "c"});
  expect(t.Count("a") == 3 && t.Count("b") == 3 && t.Count("c") == 2,
         "tally: single-key counts");
  expect(t.Count("z") == 0, "tally: unknown key");
  expect(t.CountBoth("a", "b") == 2 && t.CountBoth("a", "c") == 1,
         "tally: pair counts");
  expect((t.DocsWithAll({"a", "b"}, 10) == std::vector<uint64_t>{0, 3}),
         "tally: drill-down ids");
  expect((t.DocsWithAll({"a", "b"}, 1) == std::vector<uint64_t>{0}),
         "tally: drill-down limit");
  expect((t.KeysWithPrefix("b") == std::vector<std::string>{"b"}),
         "tally: prefix listing");
  return failures;
}

}  // namespace vocbench
