#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace blr::lr {

/// Storage precision of a low-rank tile's U/V factors. All arithmetic is
/// carried out in real_t (double); Fp32 is an *at-rest* format only — each
/// dispatch:: kernel that meets an fp32 tile promotes its factors to fp64
/// (in place or into scratch) before the math and demotes an in-out result
/// back (DESIGN.md §10). Dense tiles and diagonal (pivotal) blocks are
/// always Fp64.
enum class Precision : std::uint8_t { Fp64 = 0, Fp32 };

const char* precision_name(Precision p);

/// Rank-r factorization A ≈ U·Vᵗ with U: m x r and V: n x r.
/// Every kernel in this library maintains U with orthonormal columns; V
/// carries the scaling (paper §3: u orthogonal, vᵗ = R or σ·Vᵗ).
///
/// The factors live either in fp64 (`u`/`v`, the working precision) or,
/// after a mixed-precision demotion, in fp32 (`u32`/`v32`); exactly one
/// pair is populated, selected by `prec`. demote()/promote() convert
/// between the two in place.
struct LrMatrix {
  la::DMatrix u;
  la::DMatrix v;
  la::SMatrix u32;  ///< fp32 at-rest factors (active when prec == Fp32)
  la::SMatrix v32;
  Precision prec = Precision::Fp64;

  LrMatrix() = default;
  LrMatrix(la::DMatrix u_, la::DMatrix v_) : u(std::move(u_)), v(std::move(v_)) {}

  [[nodiscard]] index_t rows() const {
    return prec == Precision::Fp32 ? u32.rows() : u.rows();
  }
  [[nodiscard]] index_t cols() const {
    return prec == Precision::Fp32 ? v32.rows() : v.rows();
  }
  [[nodiscard]] index_t rank() const {
    return prec == Precision::Fp32 ? u32.cols() : u.cols();
  }
  [[nodiscard]] std::size_t entries() const {
    return static_cast<std::size_t>(u.size() + v.size() + u32.size() +
                                    v32.size());
  }
  /// Bytes actually stored: fp32 factors cost half of their fp64 form.
  [[nodiscard]] std::size_t bytes() const {
    return static_cast<std::size_t>(u.size() + v.size()) * sizeof(real_t) +
           static_cast<std::size_t>(u32.size() + v32.size()) *
               sizeof(la::single_t);
  }

  /// Round the factors to fp32 storage (no-op when already Fp32).
  void demote() {
    if (prec == Precision::Fp32) return;
    u32 = la::SMatrix(u.rows(), u.cols());
    la::convert(u.cview(), u32.view());
    v32 = la::SMatrix(v.rows(), v.cols());
    la::convert(v.cview(), v32.view());
    u = la::DMatrix();
    v = la::DMatrix();
    prec = Precision::Fp32;
  }

  /// Widen fp32 factors back to fp64 storage (exact; no-op when Fp64).
  void promote() {
    if (prec == Precision::Fp64) return;
    u = la::DMatrix(u32.rows(), u32.cols());
    la::convert(u32.cview(), u.view());
    v = la::DMatrix(v32.rows(), v32.cols());
    la::convert(v32.cview(), v.view());
    u32 = la::SMatrix();
    v32 = la::SMatrix();
    prec = Precision::Fp64;
  }

  /// Materialize into `out` (must be rows() x cols()): out = U·Vᵗ.
  /// Fp32 factors are promoted into local scratch first — the product is
  /// always computed in fp64.
  void to_dense(la::DView out) const {
    if (prec == Precision::Fp32) {
      la::DMatrix tu(u32.rows(), u32.cols());
      la::convert(u32.cview(), tu.view());
      la::DMatrix tv(v32.rows(), v32.cols());
      la::convert(v32.cview(), tv.view());
      la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), tu.cview(), tv.cview(),
               real_t(0), out);
      return;
    }
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), u.cview(), v.cview(),
             real_t(0), out);
  }

  /// out -= U·Vᵗ (or out -= V·Uᵗ when `transpose`); fp64 arithmetic, with
  /// fp32 factors promoted into local scratch first.
  void subtract_from(la::DView out, bool transpose = false) const {
    la::DConstView uu = u.cview();
    la::DConstView vv = v.cview();
    la::DMatrix tu, tv;
    if (prec == Precision::Fp32) {
      tu.reshape(u32.rows(), u32.cols());
      la::convert(u32.cview(), tu.view());
      tv.reshape(v32.rows(), v32.cols());
      la::convert(v32.cview(), tv.view());
      uu = tu.cview();
      vv = tv.cview();
    }
    if (!transpose) {
      la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), uu, vv, real_t(1),
               out);
    } else {
      la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), vv, uu, real_t(1),
               out);
    }
  }
};

/// Lifecycle of a tile through the factorization. Transitions are
/// forward-only (states may be skipped — a Just-In-Time tile goes
/// Assembled → Compressed → Factored, a dense one Assembled → Factored);
/// any attempt to move backwards throws blr::Error.
enum class TileState : std::uint8_t {
  Unassembled = 0,  ///< created, no numeric content yet
  Assembled,        ///< holds the gathered initial values + received updates
  Compressed,       ///< low-rank representation installed (initial or JIT)
  Factored,         ///< panel solve applied; immutable from here on
};

const char* tile_state_name(TileState s);

/// Per-supernode allocation pool: every tile of one column block charges its
/// storage here, and the arena forwards the byte deltas to the process-wide
/// MemoryTracker under a single category. This gives (a) one switch point
/// for the category of a whole supernode (factors vs workspace) and (b) a
/// per-supernode live-byte figure for diagnostics, while keeping the
/// tracker's per-category peaks intact.
class TileArena {
public:
  TileArena() = default;
  explicit TileArena(MemCategory cat) : cat_(cat) {}
  TileArena(const TileArena&) = delete;
  TileArena& operator=(const TileArena&) = delete;
  ~TileArena() {
    // Tiles normally discharge themselves first (declare the arena before
    // its tiles); release any remainder so the tracker never leaks.
    const std::size_t rem = bytes_.load(std::memory_order_relaxed);
    if (rem > 0) MemoryTracker::instance().release(cat_, rem);
  }

  void charge(std::size_t b) {
    if (b == 0) return;
    // Tracker first: under a memory budget allocate() can throw, and the
    // arena must not count bytes the tracker refused (a stale bytes_ would
    // underflow the tracker when the tiles discharge).
    MemoryTracker::instance().allocate(cat_, b);
    const std::size_t now = bytes_.fetch_add(b, std::memory_order_relaxed) + b;
    std::size_t expected = peak_.load(std::memory_order_relaxed);
    while (now > expected &&
           !peak_.compare_exchange_weak(expected, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void discharge(std::size_t b) {
    if (b == 0) return;
    bytes_.fetch_sub(b, std::memory_order_relaxed);
    MemoryTracker::instance().release(cat_, b);
  }

  /// Live bytes currently charged by this supernode's tiles.
  [[nodiscard]] std::size_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// High-water mark of bytes() over this arena's lifetime (CAS-max, so
  /// concurrent charges from parallel update tasks cannot lose a peak).
  [[nodiscard]] std::size_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] MemCategory category() const { return cat_; }

private:
  MemCategory cat_ = MemCategory::Factors;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> peak_{0};
};

/// The single numeric storage unit of the factorization: a tagged
/// dense/low-rank variant with an explicit lifecycle state machine.
///
/// One Tile type serves every role the engine needs — diagonal blocks,
/// off-diagonal panel blocks, update contributions (A·Bᵗ products), and
/// LUAR accumulators — so a kernel only ever sees "a tile in some
/// representation", and adding a representation (e.g. a lower precision)
/// means adding kernel paths and counter rows, not new storage structs.
/// Storage is
/// registered with the MemoryTracker either through a per-supernode
/// TileArena or standalone under a category.
class Tile {
public:
  Tile() = default;

  static Tile make_dense(index_t m, index_t n,
                         MemCategory cat = MemCategory::Factors) {
    Tile t;
    t.rows_ = m;
    t.cols_ = n;
    t.cat_ = cat;
    t.dense_ = la::DMatrix(m, n);
    t.lowrank_ = false;
    t.retrack();
    return t;
  }
  static Tile make_dense(index_t m, index_t n, TileArena& arena) {
    Tile t;
    t.rows_ = m;
    t.cols_ = n;
    t.arena_ = &arena;
    t.cat_ = arena.category();
    t.dense_ = la::DMatrix(m, n);
    t.lowrank_ = false;
    t.retrack();
    return t;
  }

  /// Take ownership of an existing dense matrix.
  static Tile from_dense(la::DMatrix d, MemCategory cat = MemCategory::Factors) {
    Tile t;
    t.rows_ = d.rows();
    t.cols_ = d.cols();
    t.cat_ = cat;
    t.dense_ = std::move(d);
    t.lowrank_ = false;
    t.retrack();
    return t;
  }
  static Tile from_dense(la::DMatrix d, TileArena& arena) {
    Tile t;
    t.rows_ = d.rows();
    t.cols_ = d.cols();
    t.arena_ = &arena;
    t.cat_ = arena.category();
    t.dense_ = std::move(d);
    t.lowrank_ = false;
    t.retrack();
    return t;
  }

  static Tile make_lowrank(index_t m, index_t n, LrMatrix lr,
                           MemCategory cat = MemCategory::Factors) {
    Tile t;
    t.rows_ = m;
    t.cols_ = n;
    t.cat_ = cat;
    t.lr_ = std::move(lr);
    t.lowrank_ = true;
    t.retrack();
    return t;
  }
  static Tile make_lowrank(index_t m, index_t n, LrMatrix lr, TileArena& arena) {
    Tile t;
    t.rows_ = m;
    t.cols_ = n;
    t.arena_ = &arena;
    t.cat_ = arena.category();
    t.lr_ = std::move(lr);
    t.lowrank_ = true;
    t.retrack();
    return t;
  }

  Tile(const Tile&) = delete;
  Tile& operator=(const Tile&) = delete;
  Tile(Tile&& o) noexcept { move_from(o); }
  Tile& operator=(Tile&& o) noexcept {
    if (this != &o) {
      untrack();
      move_from(o);
    }
    return *this;
  }
  ~Tile() { untrack(); }

  // ---- lifecycle -----------------------------------------------------

  [[nodiscard]] TileState state() const { return state_; }

  /// Move the lifecycle forward (idempotent on the same state). A backward
  /// transition — e.g. Factored → Assembled — is a logic error in the
  /// driver and always throws.
  void advance(TileState next) {
    if (static_cast<int>(next) < static_cast<int>(state_)) {
      throw Error(std::string("tile state machine regression: ") +
                  tile_state_name(state_) + " -> " + tile_state_name(next));
    }
    state_ = next;
  }

  // ---- representation ------------------------------------------------

  [[nodiscard]] bool is_lowrank() const { return lowrank_; }
  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] index_t rank() const { return lowrank_ ? lr_.rank() : index_t(-1); }

  /// Storage precision of this tile. Dense tiles are always Fp64; only
  /// low-rank factors may be demoted to fp32 at-rest storage.
  [[nodiscard]] Precision precision() const {
    return lowrank_ ? lr_.prec : Precision::Fp64;
  }

  [[nodiscard]] la::DMatrix& dense() { return dense_; }
  [[nodiscard]] const la::DMatrix& dense() const { return dense_; }
  [[nodiscard]] LrMatrix& lr() { return lr_; }
  [[nodiscard]] const LrMatrix& lr() const { return lr_; }

  [[nodiscard]] std::size_t storage_entries() const {
    return lowrank_ ? lr_.entries() : static_cast<std::size_t>(dense_.size());
  }
  /// Bytes actually stored (precision-aware: fp32 factors cost half).
  [[nodiscard]] std::size_t storage_bytes() const {
    return lowrank_ ? lr_.bytes()
                    : static_cast<std::size_t>(dense_.size()) * sizeof(real_t);
  }

  /// Demote the low-rank factors to fp32 at-rest storage (tracker updated).
  /// Only low-rank tiles may demote: dense and diagonal/pivotal blocks must
  /// stay fp64, so calling this on a dense tile is a driver logic error.
  void demote_lowrank() {
    if (!lowrank_) {
      throw Error("precision demotion on a dense tile (only low-rank U/V "
                  "factors may be stored in fp32)");
    }
    if (lr_.prec == Precision::Fp32) return;
    lr_.demote();
    retrack();
  }

  /// Widen fp32 at-rest factors back to fp64 in place (tracker updated).
  /// No-op for dense or already-fp64 tiles.
  void promote_lowrank() {
    if (!lowrank_ || lr_.prec == Precision::Fp64) return;
    lr_.promote();
    retrack();
  }

  /// Replace contents with a low-rank representation (tracker updated).
  /// The installed factors keep whatever precision `lr` carries — kernels
  /// always install fp64; re-demotion is the dispatch wrapper's job.
  void set_lowrank(LrMatrix lr) {
    lr_ = std::move(lr);
    dense_ = la::DMatrix();
    lowrank_ = true;
    retrack();
  }

  /// Replace contents with a dense matrix (tracker updated).
  void set_dense(la::DMatrix d) {
    dense_ = std::move(d);
    lr_ = LrMatrix();
    lowrank_ = false;
    retrack();
  }

  /// Surrender the dense storage buffer (tracker fully discharged). The
  /// tile is left empty (0x0, Unassembled-equivalent storage); callers use
  /// this to donate retired factor buffers to a BufferPool between numeric
  /// passes instead of freeing them.
  [[nodiscard]] la::DMatrix release_dense() {
    la::DMatrix out = std::move(dense_);
    dense_ = la::DMatrix();
    lr_ = LrMatrix();
    rows_ = cols_ = 0;
    lowrank_ = false;
    retrack();
    return out;
  }

  /// Surrender the low-rank U/V buffers (tracker fully discharged); the
  /// fp64 pair is returned, fp32-at-rest factors are promoted first so the
  /// recycled buffers are always real_t storage. The tile is left empty.
  [[nodiscard]] std::pair<la::DMatrix, la::DMatrix> release_lowrank() {
    if (lr_.prec == Precision::Fp32) lr_.promote();
    std::pair<la::DMatrix, la::DMatrix> out{std::move(lr_.u), std::move(lr_.v)};
    lr_ = LrMatrix();
    dense_ = la::DMatrix();
    rows_ = cols_ = 0;
    lowrank_ = false;
    retrack();
    return out;
  }

  /// Convert a low-rank tile to dense in place.
  void densify() {
    if (!lowrank_) return;
    la::DMatrix d(rows_, cols_);
    lr_.to_dense(d.view());
    set_dense(std::move(d));
  }

  /// Materialize the tile's value into `out` (rows x cols).
  void to_dense(la::DView out) const {
    if (lowrank_) lr_.to_dense(out);
    else la::copy<real_t>(dense_.cview(), out);
  }

private:
  void move_from(Tile& o) {
    rows_ = o.rows_;
    cols_ = o.cols_;
    cat_ = o.cat_;
    arena_ = o.arena_;
    tracked_ = o.tracked_;
    lowrank_ = o.lowrank_;
    state_ = o.state_;
    dense_ = std::move(o.dense_);
    lr_ = std::move(o.lr_);
    o.tracked_ = 0;
    o.arena_ = nullptr;
    o.rows_ = o.cols_ = 0;
    o.lowrank_ = false;
    o.state_ = TileState::Unassembled;
  }

  void untrack() {
    if (tracked_ == 0) return;
    if (arena_ != nullptr) arena_->discharge(tracked_);
    else MemoryTracker::instance().release(cat_, tracked_);
    tracked_ = 0;
  }

  /// Re-register the tracked byte count after a storage change.
  void retrack() {
    const std::size_t want = storage_bytes();
    if (want == tracked_) return;
    if (arena_ != nullptr) {
      if (want > tracked_) arena_->charge(want - tracked_);
      else arena_->discharge(tracked_ - want);
    } else {
      auto& t = MemoryTracker::instance();
      if (want > tracked_) t.allocate(cat_, want - tracked_);
      else t.release(cat_, tracked_ - want);
    }
    tracked_ = want;
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  MemCategory cat_ = MemCategory::Factors;
  TileArena* arena_ = nullptr;
  std::size_t tracked_ = 0;
  bool lowrank_ = false;
  TileState state_ = TileState::Unassembled;
  la::DMatrix dense_;
  LrMatrix lr_;
};

/// Fp64 working copy of a (possibly fp32-at-rest) low-rank tile, tracked
/// under `cat` (conversion scratch is Workspace by default, so promotion
/// copies never inflate the Factors accounting). The dispatch layer uses
/// this to feed fp32 operands to the fp64 kernels without mutating the
/// source tile, which may be read concurrently by other update tasks.
Tile promote_copy(const Tile& t, MemCategory cat = MemCategory::Workspace);

} // namespace blr::lr
