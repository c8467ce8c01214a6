// SyncPoints: a process-global, test-only injection seam at named stage
// boundaries of the pipelined update engine and the persistence layer.
//
// Production code drops a marker at every point where a crash or an I/O
// failure has a distinct recovery story:
//
//   if (SyncPoints::fire(kEnginePreSettle, epoch) != SyncPoints::kProceed)
//     ... treat as injected crash/failure ...
//
// When no hook is installed (always, outside tests) a fire() is one
// relaxed atomic load — the seam costs nothing on the hot path. Tests
// install a hook that observes (point name, epoch) pairs in the exact
// order the stages reach them and picks one of three actions per firing:
//
//   kProceed  carry on (the hook may still have recorded the event, or
//             copied files aside to capture a crash-consistent image of
//             what is on disk at this boundary)
//   kFail     the call site reports an injected I/O failure through its
//             normal error return (journal fsync, checkpoint rename) —
//             this is how fsync-failure reporting is regression-tested
//             without a failing disk
//   kCrash    the process "dies" here: the engine halts every stage
//             without another byte of I/O, modeling SIGKILL at this exact
//             boundary. Nothing latches it: a call site below the engine
//             (checkpoint rename) reports it through its `false` return,
//             and that return is what halts the engine.
//
// This is the schedule-exploration idea of workflow model checking scaled
// to one pipeline: the synchronous (inline) engine visits the points in a
// fixed total order, so "kill at point P of epoch E" enumerates every
// reachable crash state deterministically; the recovery tests then prove
// each of those states resumes byte-identically.
//
// Thread contract: install()/clear() only while no engine/journal is
// running (test setup/teardown). fire() may race with itself from
// multiple stage threads; the hook must be thread-safe when the installer
// arms a pipelined (multi-threaded) engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

namespace pdmm {

class SyncPoints {
 public:
  enum Action : uint8_t { kProceed = 0, kFail = 1, kCrash = 2 };
  using Hook = std::function<Action(const char* point, uint64_t arg)>;

  // Fires the named point with a site-specific argument (the batch epoch
  // wherever one is in scope). Returns kProceed when no hook is armed.
  static Action fire(const char* point, uint64_t arg) {
    // mo: acquire — pairs with the release store in install(); a stage
    // thread that sees armed==true also sees the fully constructed hook.
    if (!armed_.load(std::memory_order_acquire)) return kProceed;
    return fire_slow(point, arg);
  }

  // Installs `hook` (replacing any previous one). Test-only; must not
  // race with fire().
  static void install(Hook hook);
  // Removes the hook.
  static void clear();

 private:
  static Action fire_slow(const char* point, uint64_t arg);

  static std::atomic<bool> armed_;
};

// ---- point names -----------------------------------------------------------
// One constant per boundary so call sites and tests cannot drift apart.
// Engine stage boundaries (arg = batch epoch):
inline constexpr char kEnginePreAppend[] = "engine.pre_append";
inline constexpr char kEnginePostAppend[] = "engine.post_append";
inline constexpr char kEnginePostCommit[] = "engine.post_commit";
inline constexpr char kEnginePreSettle[] = "engine.pre_settle";
inline constexpr char kEnginePostSettle[] = "engine.post_settle";
inline constexpr char kEnginePrePublish[] = "engine.pre_publish";
inline constexpr char kEnginePostPublish[] = "engine.post_publish";
inline constexpr char kEnginePreCheckpoint[] = "engine.pre_checkpoint";
// Library-internal boundaries:
//   journal.pre_fsync     in Journal::commit(), before fflush/fsync; kFail
//                         reports an injected fsync failure (arg = last
//                         epoch buffered).
//   checkpoint.pre_rename in the atomic checkpoint placement, after the
//                         tmp file is complete but before the rename;
//                         kCrash leaves the .tmp stray a real crash would
//                         (arg = checkpoint epoch when known, else 0).
inline constexpr char kJournalPreFsync[] = "journal.pre_fsync";
inline constexpr char kCheckpointPreRename[] = "checkpoint.pre_rename";
// Replication boundaries (replicate/replica_engine.cpp; arg = the record
// epoch about to be applied/published, or the applied epoch for verify/
// promote). kCrash models SIGKILL-ing the follower between applying a
// record and publishing its view, or mid-promotion; the follower's whole
// design burden is that every one of these states restarts cleanly.
inline constexpr char kReplicaPreApply[] = "replica.pre_apply";
inline constexpr char kReplicaPrePublish[] = "replica.pre_publish";
inline constexpr char kReplicaPreVerify[] = "replica.pre_verify";
inline constexpr char kReplicaPrePromote[] = "replica.pre_promote";

}  // namespace pdmm
