//===- lint/LayoutLint.h - Structure-layout static analyzer ----*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ccl-lint analysis engine: consumes reflected structure layouts
/// (support/Reflect.h) plus optional field-affinity profiles
/// (obs/FieldProfile.h, live or re-read from a ccl-fields-v1 dump) and
/// produces ranked diagnostics:
///
///  * padding-hole / tail-padding — bytes lost to alignment
///  * line-straddle — objects or fields crossing cache-line boundaries
///    at the preset line sizes (E5000: 16 B L1 / 64 B L2)
///  * dead-field — fields with zero profiled references (or explicit
///    Pad/Unused names when no profile is present)
///  * hot-cold-split — split candidates per the paper's model, with the
///    predicted hot-bytes-per-cache-line before/after
///  * field-reorder — a concrete reordered layout, with the predicted
///    expected-lines-touched-per-visit improvement
///
/// Plans can be *confirmed* by re-simulating the suggested layout
/// against the original through a MemoryHierarchy (confirmPlan) — the
/// tool and tests use this to check predictions against measured
/// misses rather than trusting the closed-form model.
///
/// Prediction model (see DESIGN.md "Layout lint"):
///  - visit probability p_f = refs_f / max_g refs_g
///  - expected lines per visit at line size L, averaged over the
///    lcm(stride, L)/stride placement phases:
///      E[lines] = sum_lines (1 - prod_{f overlaps line} (1 - p_f))
///  - hot bytes per line = (sum_f p_f * size_f) / E[lines]
///  - split candidates also report the paper's static density
///    L * hot_bytes / sizeof(struct).
///
//===----------------------------------------------------------------------===//

#ifndef CCL_LINT_LAYOUTLINT_H
#define CCL_LINT_LAYOUTLINT_H

#include "obs/FieldProfile.h"
#include "sim/CacheConfig.h"
#include "support/Reflect.h"

#include <cstdio>
#include <string>
#include <vector>

namespace ccl::lint {

enum class DiagKind {
  PaddingHole,
  TailPadding,
  LineStraddle,
  DeadField,
  HotColdSplit,
  FieldReorder,
};

const char *diagKindName(DiagKind Kind);

/// Analysis + --check thresholds. Defaults are calibrated so the
/// repo's own annotated structs pass (deliberate 64 B node padding and
/// unavoidable 24-B-on-64-B straddles stay warnings).
struct LintOptions {
  /// Cache-line sizes analyzed for straddling/locality; the first entry
  /// is the line the per-visit model quotes (E5000 L1), the last is the
  /// transfer line the split model quotes (E5000 L2).
  std::vector<uint32_t> LineSizes = {16, 64};
  /// Field with refs/visits below this is cold (profile present).
  double ColdRefFrac = 0.005;
  /// Ignore profiles with fewer attributed accesses than this.
  uint64_t MinProfileAccesses = 128;
  /// Emit split/reorder plans only when predicted gain meets this.
  double MinPlanGain = 1.03;

  // --check thresholds (Error when exceeded).
  double MaxPaddingFrac = 0.25;
  /// Straddle-fraction gate; applies to objects no larger than the line
  /// (bigger objects cannot help straddling).
  double MaxStraddleFrac = 0.5;
  /// Fail on profile-confirmed dead fields.
  bool FailOnDeadField = false;
  /// Fail when any emitted plan predicts at least this gain (a layout
  /// the profile says we are leaving on the table); 0 disables.
  double FailOnPlanGain = 0.0;
};

/// One suggested field placement in a plan.
struct FieldPlanEntry {
  std::string Name;
  uint32_t OldOffset = 0;
  uint32_t NewOffset = 0;
  uint32_t Size = 0;
  bool Hot = true;
  /// True for the synthetic cold-indirection pointer a split adds.
  bool IsColdPtr = false;
  /// Split plans: cold fields get offsets in the cold structure.
  bool InColdStruct = false;
};

/// A concrete suggested layout (reorder or hot/cold split).
struct LayoutPlan {
  std::vector<FieldPlanEntry> Fields;
  /// Hot-structure size (splits) or full reordered size.
  uint32_t NewSize = 0;
  uint32_t NewAlign = 1;
  /// Split plans: the cold structure's size (0 for reorders).
  uint32_t ColdSize = 0;
  bool AddsColdPointer = false;
  /// Line size the per-visit model below was evaluated at.
  uint32_t ModelLine = 16;
  double ExpectedLinesBefore = 0.0;
  double ExpectedLinesAfter = 0.0;
  double HotBytesPerLineBefore = 0.0;
  double HotBytesPerLineAfter = 0.0;
  /// Split plans: the paper's static density L2Line * H / S.
  double StaticDensityBefore = 0.0;
  double StaticDensityAfter = 0.0;
  /// Headline predicted improvement (ExpectedLinesBefore / After).
  double PredictedGain = 1.0;
};

struct Diagnostic {
  DiagKind Kind = DiagKind::PaddingHole;
  std::string TypeName;
  std::string Module;
  /// Field the diagnostic anchors to; empty for whole-type diags.
  std::string Field;
  std::string Message;
  /// Ranking key (higher = worse); fraction-of-size scaled.
  double Severity = 0.0;
  /// True when the diagnostic trips a --check threshold.
  bool Error = false;
  /// Line size for straddle diagnostics, else 0.
  uint32_t LineSize = 0;
  uint32_t WastedBytes = 0;
  double Fraction = 0.0;
  bool HasPlan = false;
  LayoutPlan Plan;
};

/// Normalized profile input: counters by field name for one type, from
/// a live FieldProfileSink or a parsed ccl-fields-v1 dump.
struct TypeProfileView {
  uint64_t Accesses = 0;
  std::vector<std::pair<std::string, obs::FieldCounters>> Fields;

  const obs::FieldCounters *counters(const std::string &Name) const;
  /// Adds \p C to field \p Name's counters, appending the field if new.
  void add(const std::string &Name, const obs::FieldCounters &C);
  /// Largest per-field reference count — the per-visit normalizer.
  uint64_t visits() const;
};

/// Profile store keyed by type name.
class ProfileData {
public:
  void addFromSink(const obs::FieldProfileSink &Sink);
  void addFromDoc(const obs::FieldsDoc &Doc);
  const TypeProfileView *forType(const std::string &Name) const;
  size_t typeCount() const { return Views.size(); }

private:
  std::vector<std::pair<std::string, TypeProfileView>> Views;
  TypeProfileView &slot(const std::string &Name);
};

/// A full analysis run over every registered type.
struct LintReport {
  /// Ranked: errors first, then by severity.
  std::vector<Diagnostic> Diags;
  size_t Errors = 0;
  size_t TypesAnalyzed = 0;
  size_t TypesProfiled = 0;
};

/// Analyzes every type in \p Registry. \p Profile may be null.
LintReport analyze(const reflect::TypeRegistry &Registry,
                   const ProfileData *Profile, const LintOptions &Options);

/// Analyzes a single type (testing / focused runs).
void analyzeType(const reflect::TypeDesc &Desc, const TypeProfileView *View,
                 const LintOptions &Options, std::vector<Diagnostic> &Out);

/// Fraction of stride-packed placements of span [Offset, Offset+Size)
/// that cross an \p Line boundary, averaged over all placement phases.
double straddleFraction(uint32_t Stride, uint32_t Offset, uint32_t Size,
                        uint32_t Line);

//===----------------------------------------------------------------------===//
// Plan confirmation by re-simulation
//===----------------------------------------------------------------------===//

struct PlanConfirmation {
  uint64_t Visits = 0;
  uint64_t Objects = 0;
  /// Misses per visit at the plan's model line (L1 misses for lines
  /// within the L1 block size, else L2 misses).
  double MissesPerVisitBefore = 0.0;
  double MissesPerVisitAfter = 0.0;
  /// Before / After (>1 = the suggested layout misses less).
  double MeasuredGain = 1.0;
  double PredictedGain = 1.0;
  /// Measured gain is in the predicted direction and achieves at least
  /// a material share of the prediction.
  bool Confirmed = false;
};

/// Re-simulates \p Plan for \p Desc against the original layout: builds
/// two synthetic object arrays (original stride vs suggested layout,
/// split cold fields in a separate array), drives the same
/// profile-weighted field-visit stream through two fresh
/// MemoryHierarchy instances, and compares miss rates at the plan's
/// model line. \p View may be null (every field treated as always
/// accessed). Deterministic (fixed LCG seed).
PlanConfirmation confirmPlan(const reflect::TypeDesc &Desc,
                             const TypeProfileView *View,
                             const LayoutPlan &Plan,
                             const sim::HierarchyConfig &Config,
                             uint64_t Objects = 0, uint64_t Visits = 0);

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

/// Human-readable report.
void renderText(const LintReport &Report, std::FILE *Out);

/// Single-document JSON (schema "ccl-lint-v1"), meta stamped with the
/// producing binary + git describe via support/BuildInfo.
void renderJson(const LintReport &Report, std::FILE *Out);

} // namespace ccl::lint

#endif // CCL_LINT_LAYOUTLINT_H
