#ifndef VOCBENCH_CHECKS_H_
#define VOCBENCH_CHECKS_H_

// The benchmark's own reference computations. They are written apart
// from the program (no call into src/) so that a check compares the
// program against an independent answer, never against itself.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace vocbench {

// Word-level Levenshtein distance: the fewest substitutions,
// insertions and deletions turning `ref` into `hyp`.
std::size_t WordEditDistance(const std::vector<std::string>& ref,
                             const std::vector<std::string>& hyp);

// Wilson score interval of the proportion k/n at normal quantile z.
struct WilsonBounds {
  double lower = 0;
  double upper = 1;
};
WilsonBounds Wilson(std::size_t k, std::size_t n, double z = 1.96);

// The paper's Eqn 4 interval estimate of the association index, taken
// at its left terminal: the lowest plausible joint density over the
// highest plausible marginal densities,
//   wilson_lower(n_cell/n) / (wilson_upper(n_row/n) * wilson_upper(n_col/n)).
// 0 when any count is 0.
double EqnFourLowerBound(std::size_t n_cell, std::size_t n_row,
                         std::size_t n_col, std::size_t n, double z = 1.96);

// Relative difference |a-b| / max(|a|,|b|,tiny).
double RelDiff(double a, double b);

// Per-key tally of the structured keys the benchmark generated: which
// documents (by position) carry each key, so that counts, pair counts,
// and drill-downs can be answered without the program.
class KeyTally {
 public:
  // Documents must be added in ascending `doc` order, before any query.
  void Add(uint64_t doc, const std::vector<std::string>& keys);

  std::size_t Count(const std::string& key) const;
  std::size_t CountBoth(const std::string& a, const std::string& b) const;
  // Ascending ids of documents carrying every key, at most `limit`.
  std::vector<uint64_t> DocsWithAll(const std::vector<std::string>& keys,
                                    std::size_t limit) const;
  // Keys starting with `prefix`, ascending.
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

 private:
  // Full intersection of `keys`, memoised: dashboards ask the same
  // pairs over and over.
  const std::vector<uint64_t>& Intersection(
      const std::vector<std::string>& keys) const;

  std::unordered_map<std::string, std::vector<uint64_t>> keys_;  // ascending
  mutable std::map<std::vector<std::string>, std::vector<uint64_t>> memo_;
};

// Runs the hand-made cases of the functions above; returns the failed
// case descriptions (empty when every case passes).
std::vector<std::string> SelfTest();

}  // namespace vocbench

#endif  // VOCBENCH_CHECKS_H_
