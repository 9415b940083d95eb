#include "common/subspace.h"

#include <algorithm>
#include <sstream>

namespace hics {

Subspace::Subspace(std::vector<std::size_t> dims) : dims_(std::move(dims)) {
  std::sort(dims_.begin(), dims_.end());
  dims_.erase(std::unique(dims_.begin(), dims_.end()), dims_.end());
}

bool Subspace::Contains(std::size_t dim) const {
  return std::binary_search(dims_.begin(), dims_.end(), dim);
}

bool Subspace::ContainsAll(const Subspace& other) const {
  return std::includes(dims_.begin(), dims_.end(), other.dims_.begin(),
                       other.dims_.end());
}

Subspace Subspace::With(std::size_t dim) const {
  HICS_CHECK(!Contains(dim)) << "dimension " << dim << " already present";
  Subspace result = *this;
  result.dims_.insert(
      std::lower_bound(result.dims_.begin(), result.dims_.end(), dim), dim);
  return result;
}

Subspace Subspace::Without(std::size_t dim) const {
  HICS_CHECK(Contains(dim)) << "dimension " << dim << " not present";
  Subspace result = *this;
  result.dims_.erase(
      std::lower_bound(result.dims_.begin(), result.dims_.end(), dim));
  return result;
}

Subspace Subspace::AprioriJoin(const Subspace& other, bool* ok) const {
  HICS_CHECK(ok != nullptr);
  *ok = false;
  if (dims_.size() != other.dims_.size() || dims_.empty()) return Subspace();
  const std::size_t d = dims_.size();
  for (std::size_t i = 0; i + 1 < d; ++i) {
    if (dims_[i] != other.dims_[i]) return Subspace();
  }
  if (dims_[d - 1] >= other.dims_[d - 1]) return Subspace();
  Subspace result = *this;
  result.dims_.push_back(other.dims_[d - 1]);
  *ok = true;
  return result;
}

std::vector<Subspace> Subspace::Parents() const {
  std::vector<Subspace> result;
  result.reserve(dims_.size());
  for (std::size_t dim : dims_) result.push_back(Without(dim));
  return result;
}

std::string Subspace::ToString() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) out << ", ";
    out << dims_[i];
  }
  out << "}";
  return out.str();
}

std::size_t SubspaceHash::operator()(const Subspace& s) const {
  // FNV-1a over the dimension indices.
  std::size_t h = 1469598103934665603ULL;
  for (std::size_t dim : s) {
    h ^= dim + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<Subspace> SubspacesOf(const std::vector<ScoredSubspace>& scored) {
  std::vector<Subspace> out;
  out.reserve(scored.size());
  for (const ScoredSubspace& s : scored) out.push_back(s.subspace);
  return out;
}

void SortByScoreDescending(std::vector<ScoredSubspace>* subspaces) {
  HICS_CHECK(subspaces != nullptr);
  std::sort(subspaces->begin(), subspaces->end(),
            [](const ScoredSubspace& a, const ScoredSubspace& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.subspace < b.subspace;
            });
}

void KeepTopK(std::vector<ScoredSubspace>* subspaces, std::size_t k) {
  HICS_CHECK(subspaces != nullptr);
  SortByScoreDescending(subspaces);
  if (subspaces->size() > k) subspaces->resize(k);
}

}  // namespace hics
