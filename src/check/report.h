#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "simtime/time.h"

namespace stencil::check {

/// Classification of a checker finding. Races are happens-before violations
/// on tracked buffers; the rest are API-misuse lints.
enum class FindingKind {
  kWriteWriteRace,          // two unordered writes to the same bytes
  kReadWriteRace,           // unordered read/write pair on the same bytes
  kStaleIpcMapping,         // copy through a closed/invalid IpcMappedPtr
  kWaitUnrecordedEvent,     // wait/sync on an Event that was never recorded
  kSizeMismatch,            // matched message truncates (recv < send bytes)
  kTagMismatch,             // complementary send/recv left unmatched by tags
  kRequestNeverWaited,      // request not waited before Job teardown
  kStreamDestroyedPending,  // stream destroyed/abandoned with unsynced work
  kPersistentRestart,       // start() on a persistent request still in flight
  kPersistentFreedActive,   // request_free() on an active persistent request
};

const char* to_string(FindingKind k);

/// One detected defect. For races, `first` and `second` are the two
/// conflicting ops (trace labels plus the logical thread that issued them)
/// and `missing_edge` names the happens-before edge that would order them.
/// Lints reuse the same shape: `first` is the offending op or object,
/// `second` the context (when there is one).
struct Finding {
  FindingKind kind = FindingKind::kWriteWriteRace;
  std::string first;
  std::string second;
  std::string missing_edge;
  sim::Time at = 0;  // virtual time of detection
};

/// Accumulated findings of one Checker; tests and `drill check` assert on
/// it.
class CheckReport {
 public:
  void add(Finding f) { findings_.push_back(std::move(f)); }
  const std::vector<Finding>& findings() const { return findings_; }
  bool clean() const { return findings_.empty(); }
  std::size_t count(FindingKind k) const;
  bool has(FindingKind k) const { return count(k) > 0; }
  void clear() { findings_.clear(); }

  /// Human-readable listing, one block per finding.
  void write(std::ostream& os) const;
  /// One line: "clean" or "N finding(s): kind=count ...".
  std::string summary() const;

 private:
  std::vector<Finding> findings_;
};

}  // namespace stencil::check
