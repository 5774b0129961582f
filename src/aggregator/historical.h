// Historical ("batch") analytics over stored responses (paper §3.3.1).
//
// The aggregator tees every joined randomized answer into a fault-tolerant
// store (HDFS in the prototype; in memory or a durable PartitionLog here).
// An analyst can later run a batch query over any past time range. To keep
// the batch computation within a query budget, a second round of sampling
// runs at the aggregator over the stored responses — that second sampling
// round composes with the client-side round and the error estimator
// accounts for the reduced sample.

#ifndef PRIVAPPROX_AGGREGATOR_HISTORICAL_H_
#define PRIVAPPROX_AGGREGATOR_HISTORICAL_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/error_estimation.h"
#include "storage/response_store.h"

namespace privapprox::aggregator {

// The store lives in the storage module (the durable log loads into it);
// re-exported here because it is the aggregator's historical working set.
using storage::ResponseStore;

struct BatchQueryBudget {
  // Fraction of stored responses to process (second-round sampling); 1.0
  // processes everything. Spot-market style budgets map to this directly.
  double aggregator_sampling_fraction = 1.0;
};

class HistoricalAnalytics {
 public:
  // `client_params` are the parameters the stored answers were produced
  // under (needed to de-bias); `population` is U.
  HistoricalAnalytics(const ResponseStore& store,
                      core::ExecutionParams client_params, size_t population,
                      double confidence = 0.95);

  // Runs the batch query over [from_ms, to_ms) under `budget`; the second
  // sampling round uses `rng`.
  core::QueryResult Run(int64_t from_ms, int64_t to_ms,
                        const BatchQueryBudget& budget, Xoshiro256& rng,
                        size_t num_buckets) const;

 private:
  const ResponseStore& store_;
  core::ExecutionParams client_params_;
  size_t population_;
  double confidence_;
};

}  // namespace privapprox::aggregator

#endif  // PRIVAPPROX_AGGREGATOR_HISTORICAL_H_
