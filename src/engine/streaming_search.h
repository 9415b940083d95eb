#ifndef HICS_ENGINE_STREAMING_SEARCH_H_
#define HICS_ENGINE_STREAMING_SEARCH_H_

// Include shim. A StreamingDataset is a ShardPlane, so search, contrast
// matrix and ranking need no streaming entry points of their own:
// RunHicsSearch / ComputeContrastMatrix (core/) and RankWithSubspaces
// (outlier/subspace_ranker.h) take the window directly. This header only
// gathers those declarations for existing includers.

#include "core/hics.h"
#include "engine/streaming_dataset.h"
#include "outlier/subspace_ranker.h"

#endif  // HICS_ENGINE_STREAMING_SEARCH_H_
