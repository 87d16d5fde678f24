// The four benchmark workloads (see perfbench/README.md):
//   infer-cnn   closed-loop FusedEngine runs of a partly shared B1 tree;
//   infer-xfmr  the same loop over B6's original (transformer) tree;
//   serve       open-loop Poisson load on ThreadedServer with a shared B5 tree;
//   search      one fixed-budget GMorph::Run on B1, then its best tree's engine.
#ifndef GMORPH_PERFBENCH_SRC_WORKLOADS_H_
#define GMORPH_PERFBENCH_SRC_WORKLOADS_H_

#include "perfbench/src/harness.h"

namespace perfbench {

// Runs `args.workload` and fills `result`; false for an unknown workload.
bool RunWorkload(const Args& args, Result& result);

}  // namespace perfbench

#endif  // GMORPH_PERFBENCH_SRC_WORKLOADS_H_
