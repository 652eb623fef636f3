// The repository's experiment catalogue: one registration function per
// experiment (one .cpp per experiment in this directory), plus the
// populated-registry accessor every frontend (hbn_bench, tests) goes
// through.
//
// docs/experiments.md maps each name registered here to the paper
// section/claim it reproduces and the JSON fields it emits.
#pragma once

#include "hbn/engine/experiment.h"

namespace hbn::bench {

/// engine::ExperimentRegistry::global(), populated with every experiment
/// below on first use (idempotent).
[[nodiscard]] engine::ExperimentRegistry& experiments();

namespace detail {
void registerApproxRatio(engine::ExperimentRegistry&);       // E1
void registerNpGadget(engine::ExperimentRegistry&);          // E2
void registerRuntime(engine::ExperimentRegistry&);           // E3
void registerNibbleOptimality(engine::ExperimentRegistry&);  // E4
void registerDeletionFactor(engine::ExperimentRegistry&);    // E5
void registerRingVsBus(engine::ExperimentRegistry&);         // E6
void registerThroughput(engine::ExperimentRegistry&);        // E7
void registerDistributedRounds(engine::ExperimentRegistry&); // E8
void registerStrategyComparison(engine::ExperimentRegistry&);// E9
void registerAblation(engine::ExperimentRegistry&);          // E10
void registerDynamic(engine::ExperimentRegistry&);           // E11
void registerServingThroughput(engine::ExperimentRegistry&); // E12
void registerLoadEngine(engine::ExperimentRegistry&);        // E13
void registerPolicyComparison(engine::ExperimentRegistry&);  // E14
void registerFaultRecovery(engine::ExperimentRegistry&);     // E15
void registerShardedServing(engine::ExperimentRegistry&);    // E16
}  // namespace detail

}  // namespace hbn::bench
