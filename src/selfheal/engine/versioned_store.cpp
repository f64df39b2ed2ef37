#include "selfheal/engine/versioned_store.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

namespace selfheal::engine {

void VersionedStore::ensure(wfspec::ObjectId object) const {
  if (object < 0) throw std::out_of_range("VersionedStore: negative object id");
  const auto idx = static_cast<std::size_t>(object);
  if (idx >= histories_.size()) histories_.resize(idx + 1);
  if (histories_[idx].empty()) {
    histories_[idx].push_back(Version{initial_value(object), 0, kInitialWriter});
  }
}

Value VersionedStore::read(wfspec::ObjectId object) const {
  return latest(object).value;
}

const Version& VersionedStore::latest(wfspec::ObjectId object) const {
  ensure(object);
  return histories_[static_cast<std::size_t>(object)].back();
}

void VersionedStore::write(wfspec::ObjectId object, Value value, SeqNo seq,
                           InstanceId writer) {
  ensure(object);
  auto& history = histories_[static_cast<std::size_t>(object)];
  if (seq <= history.back().seq) {
    throw std::logic_error("VersionedStore: write at seq " + std::to_string(seq) +
                           " not after current seq " +
                           std::to_string(history.back().seq));
  }
  history.push_back(Version{value, seq, writer});
}

const Version& VersionedStore::version_before(wfspec::ObjectId object, SeqNo seq,
                                              const WriterFilter& skip) const {
  ensure(object);
  const auto& history = histories_[static_cast<std::size_t>(object)];
  // Versions are in seq order: binary-search the last one before `seq`
  // (a hot object's history grows with the log), then step back past
  // skipped writers.
  auto it = std::make_reverse_iterator(std::lower_bound(
      history.begin(), history.end(), seq,
      [](const Version& v, SeqNo s) { return v.seq < s; }));
  for (; it != history.rend(); ++it) {
    if (skip && it->writer != kInitialWriter && skip(it->writer)) continue;
    return *it;
  }
  throw std::logic_error("VersionedStore: no version before seq " +
                         std::to_string(seq));
}

Value VersionedStore::restore_before(wfspec::ObjectId object, SeqNo restore_point,
                                     SeqNo new_seq, InstanceId restorer,
                                     const WriterFilter& skip) {
  const Value value = version_before(object, restore_point, skip).value;
  write(object, value, new_seq, restorer);
  return value;
}

const std::vector<Version>& VersionedStore::history(wfspec::ObjectId object) const {
  ensure(object);
  return histories_[static_cast<std::size_t>(object)];
}

std::vector<Value> VersionedStore::snapshot() const {
  std::vector<Value> values;
  values.reserve(histories_.size());
  for (std::size_t o = 0; o < histories_.size(); ++o) {
    ensure(static_cast<wfspec::ObjectId>(o));
    values.push_back(histories_[o].back().value);
  }
  return values;
}

}  // namespace selfheal::engine
