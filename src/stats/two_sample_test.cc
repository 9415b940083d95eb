#include "stats/two_sample_test.h"

#include <span>

#include "simd/simd.h"
#include "stats/cvm_test.h"
#include "stats/ks_test.h"
#include "stats/welch_t_test.h"

namespace hics::stats {

std::size_t SelectConditional(const SelectionView& view,
                              SelectionScratch* scratch, bool with_mask) {
  const std::size_t n = view.column.size();
  scratch->values.resize(n + simd::kCompactPad);
  if (with_mask) scratch->mask.resize(n);
  return simd::ActiveKernels().select_rank_window(
      view.condition_ranks.data(), view.window_starts.data(),
      view.condition_ranks.size(), view.window_block, view.column.data(), n,
      scratch->values.data(), with_mask ? scratch->mask.data() : nullptr);
}

std::size_t SelectConditionalSorted(const SelectionView& view,
                                    SelectionScratch* scratch) {
  SelectConditional(view, scratch, /*with_mask=*/true);
  // marginal_sorted[pos] == column[sorted_order[pos]], so the emitted value
  // needs no second indirection. Pure data movement: every tier emits the
  // identical sequence.
  return simd::ActiveKernels().compact_selected_sorted(
      view.marginal_sorted.data(), view.sorted_order.data(),
      scratch->mask.data(), view.sorted_order.size(), /*target=*/1,
      scratch->values.data());
}

double TwoSampleTest::DeviationFromSelection(const SelectionView& view,
                                             SelectionScratch* scratch) const {
  // Reference semantics: the selected values in object-id order, evaluated
  // as if the caller had materialized the conditional.
  const std::size_t k = SelectConditional(view, scratch, /*with_mask=*/false);
  return DeviationPresortedMarginal(
      view.marginal_sorted, std::span<const double>(scratch->values.data(), k));
}

std::unique_ptr<TwoSampleTest> MakeTwoSampleTest(const std::string& name) {
  if (name == "welch" || name == "wt") {
    return std::make_unique<WelchTDeviation>();
  }
  if (name == "ks") {
    return std::make_unique<KsDeviation>();
  }
  if (name == "cvm") {
    return std::make_unique<CvmDeviation>();
  }
  return nullptr;
}

}  // namespace hics::stats
