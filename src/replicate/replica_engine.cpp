#include "replicate/replica_engine.h"

#include <filesystem>
#include <sstream>

#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "util/sync_point.h"

namespace pdmm::replicate {

namespace {

std::string u64s(uint64_t v) { return std::to_string(v); }

}  // namespace

std::string ReplicaHealth::format() const {
  std::string s;
  s += "applied=" + u64s(applied_epoch);
  s += " durable=" + u64s(durable_epoch);
  s += " behind=" + u64s(bytes_behind) + "B";
  s += " journal=" + u64s(journal_bytes) + "B";
  s += " primary_ck=" + u64s(primary_checkpoint_epoch);
  s += " records=" + u64s(records_applied);
  s += " polls=" + u64s(polls);
  s += " verified=" + u64s(checkpoints_verified);
  s += " status=";
  s += to_string(last_status);
  return s;
}

ReplicaEngine::ReplicaEngine(DynamicMatcher& m, MatchViewService* service,
                             ReplicaOptions opt)
    : matcher_(m),
      service_(service),
      opt_(std::move(opt)),
      tailer_(opt_.journal_path,
              JournalTailer::Options{opt_.expected_stream}),
      stream_(opt_.expected_stream) {
  // The whole engine is updater-thread code: it mutates the matcher and
  // publishes views, so it must be constructed and driven on the thread
  // holding the updater role.
  matcher_.updater_role().assert_held();
}

TailStatus ReplicaEngine::fail(std::string why) {
  failed_ = true;
  error_ = std::move(why);
  last_status_ = TailStatus::kFailed;
  return TailStatus::kFailed;
}

bool ReplicaEngine::bootstrap(std::string* error) {
  const auto set_err = [&](std::string e) {
    fail(std::move(e));
    if (error) *error = error_;
    return false;
  };
  if (bootstrapped_) return set_err("bootstrap() called twice");
  if (failed_) {
    if (error) *error = error_;
    return false;
  }
  if (opt_.journal_path.empty()) {
    return set_err("replica needs the primary's journal path");
  }

  if (!opt_.checkpoint_prefix.empty()) {
    const persist::CheckpointSelection ck = persist::select_checkpoint(
        matcher_, opt_.checkpoint_prefix, opt_.expected_stream);
    if (!ck.ok) return set_err(ck.error);
    if (!ck.stream.empty()) stream_ = ck.stream;
    primary_ck_epoch_ = ck.epoch;
    // No usable checkpoint is not an error for a follower: the journal
    // holds the full history, so the empty matcher at epoch 0 replays to
    // the same state — bootstrap is an optimization, not a dependency.
    // (A promoted-segment journal starting past epoch 1 will fail the
    // first apply's contiguity check with a precise error instead.)
  }

  bootstrapped_ = true;
  if (service_) service_->publish_now();
  last_status_ = TailStatus::kIdle;
  return true;
}

bool ReplicaEngine::verify_against_checkpoint(uint64_t epoch) {
  const std::string path =
      opt_.checkpoint_prefix + "." + std::to_string(epoch);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return true;
  if (SyncPoints::fire(kReplicaPreVerify, epoch) != SyncPoints::kProceed) {
    apply_error_ = "injected fault at " + std::string(kReplicaPreVerify) +
                   " (epoch " + u64s(epoch) + ")";
    return false;
  }
  persist::CheckpointData ck;
  std::string err;
  if (!persist::read_checkpoint_file(path, ck, &err)) {
    // Pruned between exists() and the read, or damaged on disk — either
    // way the file proves nothing about OUR state. Not divergence.
    return true;
  }
  if (ck.epoch() != epoch) return true;  // stray under the wrong name
  if (epoch > primary_ck_epoch_) primary_ck_epoch_ = epoch;
  std::ostringstream os;
  if (!matcher_.save(os)) {
    apply_error_ = "cannot serialize follower state for the divergence "
                   "cross-check at epoch " + u64s(epoch);
    return false;
  }
  if (os.str() != ck.snapshot) {
    apply_error_ =
        "DIVERGENCE at epoch " + u64s(epoch) + ": follower state is not "
        "byte-identical to the primary's checkpoint " + path +
        " — the replay forked (bit rot below CRC detection, config drift, "
        "or a determinism bug). Halting rather than serving diverged "
        "views. Remediation: stop this follower, discard its in-memory "
        "state, and re-bootstrap from the primary's current checkpoint "
        "series; if the mismatch reproduces, the journal and checkpoint "
        "disagree at the primary and the primary's artifacts need an "
        "integrity audit (pdmm_recover --verify_checkpoint)";
    return false;
  }
  ++ck_verified_;
  return true;
}

bool ReplicaEngine::apply_record(persist::JournalRecord&& rec) {
  if (rec.epoch <= matcher_.batch_epoch()) return true;  // bootstrap state
  if (SyncPoints::fire(kReplicaPreApply, rec.epoch) != SyncPoints::kProceed) {
    apply_error_ = "injected fault at " + std::string(kReplicaPreApply) +
                   " (epoch " + u64s(rec.epoch) + ")";
    return false;
  }
  if (!persist::apply_journal_record(matcher_, rec, &apply_error_)) {
    return false;
  }
  ++records_applied_;
  if (opt_.verify_checkpoints && !opt_.checkpoint_prefix.empty()) {
    if (!verify_against_checkpoint(rec.epoch)) return false;
  }
  return true;
}

TailStatus ReplicaEngine::step() {
  if (failed_) return TailStatus::kFailed;
  if (!bootstrapped_) return fail("step() before bootstrap()");

  apply_error_.clear();
  const TailStatus s = tailer_.poll(
      [this](persist::JournalRecord&& rec) {
        return apply_record(std::move(rec));
      });
  if (s == TailStatus::kFailed) {
    return fail(apply_error_.empty() ? tailer_.error() : apply_error_);
  }
  if (stream_.empty() && !tailer_.stream().empty()) {
    stream_ = tailer_.stream();
  }
  if (s == TailStatus::kRecord) {
    const uint64_t e = matcher_.batch_epoch();
    if (SyncPoints::fire(kReplicaPrePublish, e) != SyncPoints::kProceed) {
      return fail("injected fault at " + std::string(kReplicaPrePublish) +
                  " (epoch " + u64s(e) + ")");
    }
    if (service_) service_->publish_now();
  }
  last_status_ = s;
  return s;
}

bool ReplicaEngine::promote(const PromoteOptions& popt,
                            std::unique_ptr<persist::Journal>& out_journal,
                            std::string* error) {
  // Sticky failures: the replica's state is wrong or an injected fault
  // fired — every later call refuses with the same error.
  const auto set_err = [&](std::string e) {
    fail(std::move(e));
    if (error) *error = error_;
    return false;
  };
  // Argument refusals: the CALL was wrong, the replica is fine — it can
  // keep following and retry promotion with corrected options.
  const auto refuse = [&](std::string e) {
    if (error) *error = std::move(e);
    return false;
  };
  if (failed_) {
    if (error) *error = error_;
    return false;
  }
  if (!bootstrapped_) return refuse("promote() before bootstrap()");
  if (opt_.checkpoint_prefix.empty()) {
    return refuse("promotion requires the checkpoint series: the "
                  "promotion checkpoint is the lineage link between the "
                  "dead primary's journal and the fresh segment");
  }
  if (popt.journal_path.empty()) {
    return refuse("promotion requires a fresh journal segment path");
  }
  if (popt.journal_path == opt_.journal_path) {
    return refuse("promotion segment must not be the primary's own "
                  "journal (" + opt_.journal_path + ")");
  }

  // Drain: follow the tail until it is byte-stable for the configured
  // number of polls. A stable PENDING tail is the dead primary's torn
  // in-flight record — never durable under the process-kill model, so
  // dropping it loses nothing a client could have observed.
  util::Backoff backoff(opt_.backoff);
  uint64_t stable = 0;
  uint64_t seen_size = tailer_.file_size();
  while (stable < opt_.promote_stable_polls) {
    const TailStatus s = step();
    if (s == TailStatus::kFailed) {
      if (error) *error = error_;
      return false;
    }
    if (s == TailStatus::kRecord || tailer_.file_size() != seen_size) {
      stable = 0;
      seen_size = tailer_.file_size();
      backoff.reset();
      continue;
    }
    if (++stable < opt_.promote_stable_polls) backoff.sleep();
  }

  const uint64_t applied = matcher_.batch_epoch();
  if (SyncPoints::fire(kReplicaPrePromote, applied) !=
      SyncPoints::kProceed) {
    return set_err("injected fault at " + std::string(kReplicaPrePromote) +
                   " (epoch " + u64s(applied) + ")");
  }
  // Watermark verification: nothing the tailer validated may be missing
  // from the state we are about to crown.
  if (applied != tailer_.durable_epoch()) {
    return set_err("promotion watermark mismatch: applied epoch " +
                   u64s(applied) + " != durable epoch " +
                   u64s(tailer_.durable_epoch()));
  }
  // The primary's own checkpoints can never be ahead of its journal
  // (write-ahead rule), so a series file past our applied epoch means we
  // somehow did NOT drain the primary's full durable stream.
  const auto series = persist::list_checkpoints(opt_.checkpoint_prefix);
  if (!series.empty() && series.front().first > applied) {
    return set_err("primary checkpoint " + series.front().second +
                   " is ahead of this follower's applied epoch " +
                   u64s(applied) + "; refusing to promote a stale replica");
  }
  // Final divergence cross-check at the promotion epoch, if the primary
  // left a checkpoint exactly there.
  if (opt_.verify_checkpoints) {
    apply_error_.clear();
    if (!verify_against_checkpoint(applied)) return set_err(apply_error_);
  }

  std::error_code ec;
  if (std::filesystem::exists(popt.journal_path, ec) &&
      std::filesystem::file_size(popt.journal_path, ec) > 0) {
    return refuse(popt.journal_path + ": promotion segment already "
                  "exists and is non-empty; refusing to clobber it "
                  "(is another follower promoting into the same path?)");
  }

  // The lineage link: checkpoint at the applied epoch, atomically placed
  // into the SAME series. Recovery accepts checkpoint@E + a journal whose
  // first record is E+1, so artifacts chain without rewriting history.
  std::string werr;
  if (!persist::write_checkpoint_series(opt_.checkpoint_prefix, matcher_,
                                        popt.checkpoint_keep, &werr,
                                        popt.fsync, stream_)) {
    return set_err("cannot write the promotion checkpoint: " + werr);
  }

  persist::Journal::Options jopt;
  jopt.fsync_each = popt.fsync;
  jopt.stream = stream_;
  std::string jerr;
  auto j = persist::Journal::open(popt.journal_path, jopt, &jerr);
  if (!j) {
    return set_err("cannot open the promotion journal segment: " + jerr);
  }
  out_journal = std::move(j);
  return true;
}

ReplicaHealth ReplicaEngine::health() const {
  ReplicaHealth h;
  h.applied_epoch = matcher_.batch_epoch();
  h.durable_epoch = tailer_.durable_epoch();
  h.bytes_behind = tailer_.bytes_behind();
  h.journal_bytes = tailer_.file_size();
  h.records_applied = records_applied_;
  h.polls = tailer_.polls();
  h.checkpoints_verified = ck_verified_;
  h.last_status = failed_ ? TailStatus::kFailed : last_status_;
  h.primary_checkpoint_epoch = primary_ck_epoch_;
  if (!opt_.checkpoint_prefix.empty()) {
    const auto series = persist::list_checkpoints(opt_.checkpoint_prefix);
    if (!series.empty() &&
        series.front().first > h.primary_checkpoint_epoch) {
      h.primary_checkpoint_epoch = series.front().first;
    }
  }
  return h;
}

}  // namespace pdmm::replicate
