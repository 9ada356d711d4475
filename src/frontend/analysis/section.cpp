#include "frontend/analysis/section.hpp"

#include <limits>
#include <numeric>

namespace hli::analysis {

bool Section::equals(const Section& other) const {
  if (dims.size() != other.dims.size()) return false;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (!dims[i].lo.is_affine() || !other.dims[i].lo.is_affine()) return false;
    if (!dims[i].lo.equals(other.dims[i].lo)) return false;
    if (!dims[i].hi.equals(other.dims[i].hi)) return false;
  }
  return true;
}

bool Section::is_exact() const {
  for (const auto& d : dims) {
    if (!d.is_exact()) return false;
  }
  return true;
}

std::string Section::to_string() const {
  if (dims.empty()) return "<scalar>";
  std::string out;
  for (const auto& d : dims) {
    out += "[";
    if (d.is_unknown()) {
      out += "?";
    } else if (d.is_exact()) {
      out += d.lo.to_string();
    } else {
      out += d.lo.to_string() + ".." + d.hi.to_string();
    }
    out += "]";
  }
  return out;
}

Section widen_over_loop(const Section& section, const CanonicalLoop* loop) {
  if (loop == nullptr || loop->induction == nullptr) {
    // Non-canonical loop: any dimension mentioning anything becomes
    // unknown unless it is a pure constant range.
    Section out = section;
    for (auto& d : out.dims) {
      const bool constant = d.lo.is_affine() && d.hi.is_affine() &&
                            d.lo.is_constant() && d.hi.is_constant();
      if (!constant) d = DimSection::unknown();
    }
    return out;
  }
  Section out;
  out.dims.reserve(section.dims.size());
  for (const auto& d : section.dims) {
    if (d.is_unknown()) {
      out.dims.push_back(DimSection::unknown());
      continue;
    }
    const std::int64_t c_lo = d.lo.coefficient(loop->induction);
    const std::int64_t c_hi = d.hi.coefficient(loop->induction);
    if (c_lo == 0 && c_hi == 0) {
      out.dims.push_back(d);
      continue;
    }
    if (!loop->lower || !loop->upper) {
      out.dims.push_back(DimSection::unknown());
      continue;
    }
    // Last induction value actually taken.
    const std::int64_t first = *loop->lower;
    if (*loop->upper <= first) {
      // Zero-trip loop; keep a degenerate point at the first value.
      out.dims.push_back(
          {d.lo.substituted(loop->induction, first),
           d.hi.substituted(loop->induction, first)});
      continue;
    }
    const std::int64_t last =
        first + ((*loop->upper - 1 - first) / loop->step) * loop->step;
    DimSection widened;
    widened.lo = c_lo > 0 ? d.lo.substituted(loop->induction, first)
                          : d.lo.substituted(loop->induction, last);
    widened.hi = c_hi > 0 ? d.hi.substituted(loop->induction, last)
                          : d.hi.substituted(loop->induction, first);
    out.dims.push_back(std::move(widened));
  }
  return out;
}

namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min() / 4;
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max() / 4;

/// Feasible set of signed iteration distances d (b's iteration minus a's)
/// at which a dimension's ranges can coincide.  `precise` is false when the
/// bounds are conservative (true feasible set may be smaller).
struct DSet {
  bool empty = false;
  std::int64_t lo = kMin;
  std::int64_t hi = kMax;
  bool precise = true;

  [[nodiscard]] static DSet none() { return {true, 0, 0, true}; }
  [[nodiscard]] static DSet all_imprecise() { return {false, kMin, kMax, false}; }
  [[nodiscard]] static DSet singleton(std::int64_t d) { return {false, d, d, true}; }

  [[nodiscard]] DSet intersect(const DSet& other) const {
    if (empty || other.empty) return none();
    DSet out;
    out.lo = std::max(lo, other.lo);
    out.hi = std::min(hi, other.hi);
    out.precise = precise && other.precise;
    if (out.lo > out.hi) return none();
    return out;
  }

  [[nodiscard]] bool contains(std::int64_t d) const {
    return !empty && d >= lo && d <= hi;
  }
};

std::int64_t div_ceil(std::int64_t num, std::int64_t den) {
  const std::int64_t q = num / den;
  const bool exact = num % den == 0;
  const bool positive = (num > 0) == (den > 0);
  return q + ((!exact && positive) ? 1 : 0);
}

std::int64_t div_floor(std::int64_t num, std::int64_t den) {
  const std::int64_t q = num / den;
  const bool exact = num % den == 0;
  const bool positive = (num > 0) == (den > 0);
  return q - ((!exact && !positive) ? 1 : 0);
}

/// Clamps a linear constraint  c*d + k >= 0  to a DSet over d.
DSet constraint_set(std::int64_t c, std::int64_t k) {
  if (c == 0) return k >= 0 ? DSet{} : DSet::none();
  DSet out;
  if (c > 0) {
    out.lo = div_ceil(-k, c);  // d >= -k/c.
  } else {
    out.hi = div_floor(-k, c);  // d <= -k/c with c < 0 flipping the sense.
  }
  return out;
}

struct DimDep {
  DSet dset;
  bool equal_at_zero = false;  ///< Exactly the same point when d == 0.
  bool disjoint_at_zero = false;
};

DimDep analyze_dim(const CanonicalLoop& loop, const DimSection& a,
                   const DimSection& b) {
  DimDep out;
  if (a.is_unknown() || b.is_unknown()) {
    out.dset = DSet::all_imprecise();
    return out;
  }
  const VarDecl* ind = loop.induction;
  // Per-iteration change of the induction variable in execution order: a
  // reversed loop's later iterations take smaller values.  The sign
  // decides which access of a carried pair is the LCDD source.
  const std::int64_t stride = loop.reversed ? -loop.step : loop.step;

  if (a.is_exact() && b.is_exact()) {
    // Point-vs-point: solve  b(i + stride*d) == a(i).
    const AffineExpr diff = b.lo.minus(a.lo);  // At the same iteration i.
    const std::int64_t c_a = a.lo.coefficient(ind);
    const std::int64_t c_b = b.lo.coefficient(ind);
    const std::int64_t shift = c_b * stride;  // Effect of one iteration of lag.
    if (c_a == c_b) {
      const AffineExpr residue =
          diff.minus(AffineExpr::variable(ind).scaled(diff.coefficient(ind)));
      if (!residue.is_constant()) {
        // Symbolic difference: unknown feasibility.
        out.dset = DSet::all_imprecise();
        return out;
      }
      const std::int64_t delta = residue.constant_part();
      if (shift == 0) {
        if (delta == 0) {
          out.dset = DSet{};  // Same location at every distance.
          out.equal_at_zero = true;
        } else {
          out.dset = DSet::none();
          out.disjoint_at_zero = true;
        }
        return out;
      }
      // delta + shift*d == 0.
      if (delta % shift != 0) {
        out.dset = DSet::none();
        out.disjoint_at_zero = true;
        return out;
      }
      const std::int64_t d = -delta / shift;
      out.dset = DSet::singleton(d);
      out.equal_at_zero = d == 0;
      out.disjoint_at_zero = d != 0;
      return out;
    }
    // Different induction coefficients: GCD feasibility over (i, d).
    const std::int64_t ci = c_b - c_a;
    const AffineExpr residue =
        diff.minus(AffineExpr::variable(ind).scaled(diff.coefficient(ind)));
    if (!residue.is_constant()) {
      out.dset = DSet::all_imprecise();
      return out;
    }
    const std::int64_t delta = residue.constant_part();
    const std::int64_t g = std::gcd(std::llabs(ci), std::llabs(shift));
    if (g != 0 && delta % g != 0) {
      out.dset = DSet::none();
      out.disjoint_at_zero = true;
      return out;
    }
    out.dset = DSet::all_imprecise();
    return out;
  }

  // Range-vs-range (or point-vs-range).  Overlap at lag d requires
  //   lo_a(i) <= hi_b(i + stride*d)   and   lo_b(i + stride*d) <= hi_a(i).
  const AffineExpr gap1 = b.hi.minus(a.lo);  // Must be >= -c_hb*stride*d.
  const AffineExpr gap2 = a.hi.minus(b.lo);  // Must be >= +c_lb*stride*d.
  if (!gap1.is_constant() || !gap2.is_constant()) {
    out.dset = DSet::all_imprecise();
    return out;
  }
  const std::int64_t c_hb = b.hi.coefficient(ind);
  const std::int64_t c_lb = b.lo.coefficient(ind);
  // gap1 + c_hb*stride*d >= 0  and  gap2 - c_lb*stride*d >= 0.
  const DSet s1 = constraint_set(c_hb * stride, gap1.constant_part());
  const DSet s2 = constraint_set(-c_lb * stride, gap2.constant_part());
  out.dset = s1.intersect(s2);
  // Ranges are conservative approximations of the instance footprints, so
  // feasibility here is "may", never "must".
  out.dset.precise = false;
  out.disjoint_at_zero = !out.dset.contains(0);
  return out;
}

CarriedDep classify_direction(const DSet& dset, bool positive) {
  // Restrict the feasible set to d >= 1 (or d <= -1 for the other order).
  DSet dir;
  if (positive) {
    dir.lo = 1;
  } else {
    dir.hi = -1;
  }
  const DSet restricted = dset.intersect(dir);
  if (restricted.empty) return {CarriedKind::None, std::nullopt};
  if (restricted.precise && restricted.lo == restricted.hi) {
    return {CarriedKind::Definite, std::llabs(restricted.lo)};
  }
  // Report the minimum possible distance when the bounds are finite; the
  // scheduler only needs a lower bound to be safe.
  std::optional<std::int64_t> min_dist;
  const std::int64_t near = positive ? restricted.lo : -restricted.hi;
  if (near > 1 && near < kMax / 2) min_dist = near;
  return {CarriedKind::Maybe, min_dist};
}

}  // namespace

SectionDependence section_depend(const CanonicalLoop* loop, const Section& a,
                                 const Section& b) {
  SectionDependence out;
  if (a.dims.size() != b.dims.size()) {
    // Rank mismatch (e.g. whole-array vs element through differently-typed
    // pointers): stay conservative.
    return out;
  }
  if (loop == nullptr || loop->induction == nullptr) {
    // No iteration structure: only structural equality or constant
    // disjointness can be decided.
    if (a.equals(b)) {
      out.within = IterRelation::Equal;
      return out;
    }
    bool provably_disjoint = false;
    for (std::size_t i = 0; i < a.dims.size(); ++i) {
      const auto& da = a.dims[i];
      const auto& db = b.dims[i];
      if (da.is_unknown() || db.is_unknown()) continue;
      const AffineExpr g1 = db.hi.minus(da.lo);
      const AffineExpr g2 = da.hi.minus(db.lo);
      if (g1.is_constant() && g1.constant_part() < 0) provably_disjoint = true;
      if (g2.is_constant() && g2.constant_part() < 0) provably_disjoint = true;
    }
    if (provably_disjoint) {
      out.within = IterRelation::Disjoint;
      out.a_then_b = {CarriedKind::None, std::nullopt};
      out.b_then_a = {CarriedKind::None, std::nullopt};
    }
    return out;
  }

  if (a.dims.empty()) {
    // Scalars over the same base: identical location always.
    out.within = IterRelation::Equal;
    return out;
  }

  DSet combined;
  bool all_equal_at_zero = true;
  bool any_disjoint_at_zero = false;
  for (std::size_t i = 0; i < a.dims.size(); ++i) {
    const DimDep dim = analyze_dim(*loop, a.dims[i], b.dims[i]);
    combined = combined.intersect(dim.dset);
    if (!dim.equal_at_zero) all_equal_at_zero = false;
    if (dim.disjoint_at_zero) any_disjoint_at_zero = true;
    if (combined.empty) break;
  }

  // Clamp to the window of realizable lags when the trip count is known.
  if (loop->lower && loop->upper) {
    const std::int64_t span = *loop->upper - *loop->lower;
    const std::int64_t trips = span <= 0 ? 0 : (span + loop->step - 1) / loop->step;
    DSet window;
    window.lo = -(trips > 0 ? trips - 1 : 0);
    window.hi = trips > 0 ? trips - 1 : 0;
    combined = combined.intersect(window);
  }

  if (combined.empty) {
    out.within = IterRelation::Disjoint;
    out.a_then_b = {CarriedKind::None, std::nullopt};
    out.b_then_a = {CarriedKind::None, std::nullopt};
    return out;
  }

  if (all_equal_at_zero) {
    out.within = IterRelation::Equal;
  } else if (any_disjoint_at_zero || !combined.contains(0)) {
    out.within = IterRelation::Disjoint;
  } else {
    out.within = IterRelation::MaybeOverlap;
  }
  out.a_then_b = classify_direction(combined, /*positive=*/true);
  out.b_then_a = classify_direction(combined, /*positive=*/false);
  return out;
}

}  // namespace hli::analysis
