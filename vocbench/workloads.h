#ifndef VOCBENCH_WORKLOADS_H_
#define VOCBENCH_WORKLOADS_H_

// The three workloads. Each builds its inputs from args.seed, runs for
// args.seconds and checks the program's outputs. Untraced, it returns
// the end-to-end metrics; traced, the per-layer metrics of the layers
// it drives (and it prints the end-to-end figures it got to stderr).

#include "common.h"

namespace vocbench {

Outcome RunVoiceCalls(const RunArgs& args);
Outcome RunTelecomMessages(const RunArgs& args);
Outcome RunLiveDashboard(const RunArgs& args);

// How the two ingest workloads split a run: timed ingest, then a short
// dashboard phase over what they ingested (an open loop that is little
// more than its warm-up, then the query closed loop; queries only, no
// utterance stream). The result line
// must carry every end-to-end metric on every workload, and query_qps
// exists only where queries run; the ingest keeps most of the run.
inline constexpr double kIngestShare = 0.65;
inline constexpr double kOpenShare = 0.05;
inline constexpr double kClosedShare = 0.3;
// The open loop's one-second warm-up plus one half-second window, so
// that short runs still check measured open-loop answers.
inline constexpr double kMinOpenSeconds = 1.5;

}  // namespace vocbench

#endif  // VOCBENCH_WORKLOADS_H_
