#include "core/update_policy.hpp"

#include "core/kernels_dispatch.hpp"

namespace blr::core {

namespace {

/// DESIGN.md §10: round a freshly compressed tile's U/V factors to fp32
/// at-rest storage when mixed precision is on. Every compression site (assembly or elimination, all strategies)
/// funnels through this, so the demotion decision lives in one place.
void maybe_demote(lr::Tile& t, const PolicyContext& ctx) {
  if (ctx.precision != TilePrecision::MixedTiles || !t.is_lowrank()) return;
  t.demote_lowrank();
}

/// The replayed rank for this site (RankMemory::kUnknown when cold or the
/// site carries no record).
index_t warm_hint_for(const PolicyContext& ctx, index_t k, BlockSite site) {
  if (ctx.warm == nullptr || site.blok < 0) return RankMemory::kUnknown;
  return ctx.warm->hint(k, site.upper, site.blok);
}

/// True when the site should skip compression outright because the previous
/// pass proved the block incompressible (dense is exact, so this can only
/// save work, never accuracy). Counted per event.
bool warm_skip_dense(const PolicyContext& ctx, index_t hint) {
  if (hint != RankMemory::kDense || !ctx.warm_dense_skip) return false;
  if (ctx.warm_counters != nullptr)
    ctx.warm_counters->dense_skips.fetch_add(1, std::memory_order_relaxed);
  return true;
}

/// Turn a replayed rank into the guess handed to compress_warm: the learned
/// rank plus slack, clamped to the cap. Returns -1 (cold) when no usable
/// record exists. Counts the attempt.
index_t warm_guess(const PolicyContext& ctx, index_t hint, index_t cap) {
  if (hint < 0) return -1;
  if (ctx.warm_counters != nullptr)
    ctx.warm_counters->attempts.fetch_add(1, std::memory_order_relaxed);
  return std::min(cap, hint + ctx.warm_slack);
}

/// Record the warm outcome once the kernel reports whether it had to grow.
void warm_outcome(WarmCounters* counters, bool grew) {
  if (counters == nullptr) return;
  (grew ? counters->grows : counters->hits).fetch_add(1, std::memory_order_relaxed);
}

/// compress warm or cold depending on `guess` (counted either way in the
/// `compress[ge]` row).
std::optional<lr::LrMatrix> compress_site(const PolicyContext& ctx,
                                          la::DConstView a, index_t cap,
                                          index_t guess) {
  if (guess < 0) return dispatch::compress(ctx.kind, a, ctx.tolerance, cap);
  bool grew = false;
  auto out = dispatch::compress(ctx.kind, a, ctx.tolerance, cap, guess, &grew);
  warm_outcome(ctx.warm_counters, grew);
  return out;
}

} // namespace

lr::Tile UpdatePolicy::assemble(index_t k, BlockSite site, la::DMatrix scratch,
                                bool compressible, const PolicyContext& ctx,
                                lr::TileArena& arena) const {
  (void)k;
  (void)site;
  (void)compressible;
  (void)ctx;
  return lr::Tile::from_dense(std::move(scratch), arena);
}

void UpdatePolicy::at_elimination(index_t k, BlockSite site, lr::Tile& t,
                                  bool compressible,
                                  const PolicyContext& ctx) const {
  if (t.is_lowrank() || !compressible) return;
  const index_t hint = warm_hint_for(ctx, k, site);
  if (warm_skip_dense(ctx, hint)) return;
  if (ctx.compression_site) ctx.compression_site(k);
  const index_t limit = lr::beneficial_rank_limit(t.rows(), t.cols());
  const index_t guess = warm_guess(ctx, hint, limit);
  auto lrm = compress_site(ctx, t.dense().cview(), limit, guess);
  if (lrm) {
    t.set_lowrank(std::move(*lrm));
    t.advance(lr::TileState::Compressed);
    maybe_demote(t, ctx);
  }
}

namespace {

/// Baseline: every block dense, no compression anywhere.
class DensePolicy final : public UpdatePolicy {
public:
  [[nodiscard]] Strategy strategy() const override { return Strategy::Dense; }
  [[nodiscard]] const char* name() const override { return "Dense"; }
  void at_elimination(index_t, BlockSite, lr::Tile&, bool,
                      const PolicyContext&) const override {}
};

/// Algorithm 2: assemble dense, compress when the supernode is eliminated.
/// Updates flow through LR2GE (no orthonormality requirement).
class JustInTimePolicy final : public UpdatePolicy {
public:
  [[nodiscard]] Strategy strategy() const override {
    return Strategy::JustInTime;
  }
  [[nodiscard]] const char* name() const override { return "JustInTime"; }
};

/// Algorithm 1: compress compressible blocks at assembly and keep them
/// low-rank through the factorization: contribution products carry an
/// orthonormal U, and those landing on a low-rank block accumulate and merge
/// in one LR2LR extend-add (the driver's LUAR accumulators). The elimination
/// hook re-attempts blocks that fell back to dense when an extend-add
/// transiently exceeded the storage-beneficial rank.
class MinimalMemoryPolicy final : public UpdatePolicy {
public:
  [[nodiscard]] Strategy strategy() const override {
    return Strategy::MinimalMemory;
  }
  [[nodiscard]] const char* name() const override { return "MinimalMemory"; }

  [[nodiscard]] lr::Tile assemble(index_t k, BlockSite site, la::DMatrix scratch,
                                  bool compressible, const PolicyContext& ctx,
                                  lr::TileArena& arena) const override {
    if (!compressible) return lr::Tile::from_dense(std::move(scratch), arena);
    const index_t hint = warm_hint_for(ctx, k, site);
    if (warm_skip_dense(ctx, hint))
      return lr::Tile::from_dense(std::move(scratch), arena);
    if (ctx.compression_site) ctx.compression_site(k);
    const index_t limit =
        lr::beneficial_rank_limit(scratch.rows(), scratch.cols());
    auto lrm = compress_site(ctx, scratch.cview(), limit,
                             warm_guess(ctx, hint, limit));
    if (lrm) {
      lr::Tile t = lr::Tile::make_lowrank(scratch.rows(), scratch.cols(),
                                          std::move(*lrm), arena);
      maybe_demote(t, ctx);
      return t;
    }
    return lr::Tile::from_dense(std::move(scratch), arena);
  }

  [[nodiscard]] bool need_ortho() const override { return true; }
};

} // namespace

std::unique_ptr<UpdatePolicy> make_update_policy(const SolverOptions& opts) {
  switch (opts.strategy) {
    case Strategy::Dense: return std::make_unique<DensePolicy>();
    case Strategy::JustInTime: return std::make_unique<JustInTimePolicy>();
    case Strategy::MinimalMemory:
      return std::make_unique<MinimalMemoryPolicy>();
  }
  return std::make_unique<JustInTimePolicy>();
}

} // namespace blr::core
