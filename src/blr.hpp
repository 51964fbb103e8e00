#pragma once

/// Umbrella header for the BLR supernodal solver library.
///
/// Reproduction of "Sparse Supernodal Solver Using Block Low-Rank
/// Compression" (Pichon, Darve, Faverge, Ramet, Roman — PDSEC 2017).

#include "common/memory_tracker.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/refinement.hpp"
#include "core/session.hpp"
#include "core/solver.hpp"
#include "linalg/norms.hpp"
#include "linalg/random.hpp"
#include "lowrank/compression.hpp"
#include "lowrank/kernels.hpp"
#include "ordering/ordering.hpp"
#include "sparse/csc.hpp"
#include "sparse/generators.hpp"
#include "sparse/graph.hpp"
#include "sparse/mm_io.hpp"
#include "symbolic/symbolic.hpp"
