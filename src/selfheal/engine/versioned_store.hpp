// Versioned data-object store.
//
// The paper assumes undo(t) "can be implemented by reading the last
// version of the data objects before the attack from the log of the
// workflow management system" (Section III.A). This store keeps the full
// version history per object: writes append versions tagged with the
// writer's commit sequence number, and undo restores the value that was
// current just before a given sequence number.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "selfheal/engine/value.hpp"
#include "selfheal/wfspec/object_catalog.hpp"

namespace selfheal::engine {

using SeqNo = std::int64_t;
using InstanceId = std::int32_t;
inline constexpr InstanceId kInvalidInstance = -1;
/// Writer id of initial (version 0) values.
inline constexpr InstanceId kInitialWriter = -2;

struct Version {
  Value value = 0;
  SeqNo seq = 0;                          // commit sequence of the write
  InstanceId writer = kInitialWriter;    // log entry that wrote it
};

class VersionedStore {
 public:
  /// Objects are initialised lazily with initial_value(o) at seq 0, so
  /// stores over the same catalog start identical.
  VersionedStore() = default;

  /// Current value of an object.
  [[nodiscard]] Value read(wfspec::ObjectId object) const;

  /// Current (latest) version record.
  [[nodiscard]] const Version& latest(wfspec::ObjectId object) const;

  /// Appends a new version. `seq` must be strictly greater than the
  /// object's current version seq (commits are ordered).
  void write(wfspec::ObjectId object, Value value, SeqNo seq, InstanceId writer);

  /// Writers to skip while resolving version_before: used by undo to
  /// ignore versions written by instances that are themselves undone
  /// (Theorem 3 rule 5's reverse-output-order intent, independent of the
  /// order undo actions actually commit in).
  using WriterFilter = std::function<bool(InstanceId)>;

  /// The version that was current just before commit `seq` (i.e. the
  /// latest version with version.seq < seq), skipping versions whose
  /// writer `skip` accepts. This is what undo restores.
  [[nodiscard]] const Version& version_before(wfspec::ObjectId object, SeqNo seq,
                                              const WriterFilter& skip = nullptr) const;

  /// Undo helper: appends a new version (at `new_seq`, by `restorer`)
  /// whose value is the object's value just before `restore_point`.
  /// Returns the restored value.
  Value restore_before(wfspec::ObjectId object, SeqNo restore_point, SeqNo new_seq,
                       InstanceId restorer, const WriterFilter& skip = nullptr);

  /// Full history, oldest first (index 0 is the initial version).
  [[nodiscard]] const std::vector<Version>& history(wfspec::ObjectId object) const;

  /// Number of objects ever touched (read or written).
  [[nodiscard]] std::size_t object_count() const noexcept { return histories_.size(); }

  /// Current values of all touched objects, for whole-store comparisons.
  [[nodiscard]] std::vector<Value> snapshot() const;

 private:
  void ensure(wfspec::ObjectId object) const;

  // Lazily grown; mutable so reads of never-written objects can
  // materialise version 0.
  mutable std::vector<std::vector<Version>> histories_;
};

}  // namespace selfheal::engine
