// The benchmark's three workloads. Each builds its inputs from the seed
// before the clock starts, sets up (several times, reporting the median),
// measures for the requested seconds, checks sampled answers against a
// no-sketch oracle, and fills a RunResult.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "workload_common.h"

namespace perfbench {

/// fig08-style: one client, lazy maintenance, 1 insert + 5 HAVING queries
/// per round. Query execution dominates.
RunResult RunMixedLazy(const Options& opt);

/// fig09-style: one client, eager maintenance of three TPC-H sketches
/// after every insert/delete statement. Maintenance and storage dominate.
RunResult RunTpchChurn(const Options& opt);

/// concurrent_queries-style: an open-loop producer of async inserts plus
/// two closed-loop readers. Ingestion, publication and the read path
/// contend.
RunResult RunAsyncLoaded(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
