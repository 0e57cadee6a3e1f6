#include "pamr/dist/coordinator.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "pamr/dist/shard_log.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/csv.hpp"
#include "pamr/util/log.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {
namespace dist {

namespace {

/// Replacement workers allowed beyond the initial N before the campaign
/// aborts: a fixed base plus a few per worker.
constexpr std::size_t kBaseRespawns = 16;
constexpr std::size_t kRespawnsPerWorker = 4;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

struct WorkerProc {
  pid_t pid = -1;
  int to_fd = -1;    ///< coordinator -> worker stdin
  int from_fd = -1;  ///< worker stdout -> coordinator
  MessageAssembler assembler;
  std::int64_t inflight = -1;  ///< unit id, or -1 when idle
  bool quitting = false;       ///< `quit` sent; EOF expected, not a failure
  std::uint32_t obs_pid = 0;   ///< trace lane (1-based; 0 is the coordinator)

  [[nodiscard]] bool alive() const noexcept { return pid != -1; }
};

/// Spawns `<exe> --worker` with CLOEXEC pipes, so a replacement worker
/// forked later does not inherit (and hold open) its siblings' pipe ends —
/// that would defeat EOF-based death detection.
WorkerProc spawn_worker(const std::string& exe) {
  int to_child[2];
  int from_child[2];
  if (pipe2(to_child, O_CLOEXEC) != 0) throw_errno("pipe2");
  if (pipe2(from_child, O_CLOEXEC) != 0) {
    close(to_child[0]);
    close(to_child[1]);
    throw_errno("pipe2");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      close(fd);
    }
    throw_errno("fork");
  }
  if (pid == 0) {
    // Child: pipes become stdin/stdout (dup2 clears CLOEXEC on 0/1), every
    // other inherited descriptor closes itself at exec.
    if (dup2(to_child[0], STDIN_FILENO) < 0 ||
        dup2(from_child[1], STDOUT_FILENO) < 0) {
      _exit(126);
    }
    execl(exe.c_str(), exe.c_str(), "--worker", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  close(to_child[0]);
  close(from_child[1]);
  WorkerProc worker;
  worker.pid = pid;
  worker.to_fd = to_child[1];
  worker.from_fd = from_child[0];
  return worker;
}

bool write_all(int fd, std::string_view bytes) noexcept {
  while (!bytes.empty()) {
    const ssize_t n = write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void reap(WorkerProc& worker) {
  if (!worker.alive()) return;
  close(worker.to_fd);
  close(worker.from_fd);
  int status = 0;
  while (waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
  }
  worker.pid = -1;
  worker.to_fd = worker.from_fd = -1;
}

class SigpipeGuard {
 public:
  SigpipeGuard() : previous_(signal(SIGPIPE, SIG_IGN)) {}
  ~SigpipeGuard() { signal(SIGPIPE, previous_); }

 private:
  using Handler = void (*)(int);
  Handler previous_;
};

}  // namespace

CampaignOutcome run_campaign(const CampaignPlan& plan,
                             const CoordinatorOptions& options) {
  if (options.workers < 1 || options.workers > 256) {
    throw std::invalid_argument("workers must be in [1, 256], got " +
                                std::to_string(options.workers));
  }
  if (options.worker_exe.empty()) {
    throw std::invalid_argument("worker_exe must name the binary to re-execute");
  }
  if (plan.units.empty()) throw std::invalid_argument("empty campaign plan");

  const obs::PhaseScope campaign_phase(obs::Metric::kPhaseDistCampaign);
  // Workers inherit the telemetry gates through the environment: counters
  // and spans are recorded worker-side and shipped back over the wire.
  if (obs::enabled()) setenv("PAMR_OBS", "1", 1);
  if (obs::trace_enabled()) {
    setenv("PAMR_OBS_TRACE", "1", 1);
    obs::set_process_label(0, "coordinator");
  }

  const WallTimer timer;
  std::filesystem::create_directories(options.out_dir);
  const std::string journal_path = options.out_dir + "/shards.log";

  ShardLog journal(journal_path);
  std::map<std::uint64_t, std::string> journaled;
  std::string error;
  if (options.resume) {
    if (!journal.load(plan.fingerprint, journaled, error)) {
      throw std::runtime_error(error);
    }
  } else {
    std::ifstream existing(journal_path, std::ios::binary);
    if (existing && existing.peek() != std::ifstream::traits_type::eof()) {
      throw std::runtime_error("journal '" + journal_path +
                               "' already exists — pass --resume to continue that "
                               "campaign, or remove the directory to start over");
    }
  }
  if (!journal.open_append(plan.fingerprint, error)) throw std::runtime_error(error);

  ResultMerger merger(plan);
  for (const auto& [unit_id, aggregate] : journaled) {
    if (!merger.add(unit_id, aggregate, error)) {
      throw std::runtime_error("resumed " + error);
    }
  }

  CsvStreamWriter stream;
  (void)stream.open(options.out_dir + "/stream.csv", scenario::stream_csv_header(),
                    /*append=*/options.resume);

  std::deque<std::uint64_t> pending;
  for (const WorkUnit& unit : plan.units) {
    if (journaled.find(unit.id) == journaled.end()) pending.push_back(unit.id);
  }

  CampaignOutcome outcome;
  outcome.units_total = plan.units.size();
  outcome.units_resumed = journaled.size();
  obs::bump(obs::Metric::kDistUnitsResumeSkipped, journaled.size());

  const std::size_t max_spawns =
      options.workers + kBaseRespawns + kRespawnsPerWorker * options.workers;
  std::size_t spawns = 0;
  std::uint64_t dispatched_new = 0;

  const SigpipeGuard sigpipe_guard;
  std::vector<WorkerProc> workers;

  const auto can_dispatch = [&] {
    return !pending.empty() &&
           (options.max_units == 0 || dispatched_new < options.max_units);
  };
  const auto inflight_count = [&] {
    std::size_t n = 0;
    for (const WorkerProc& w : workers) n += w.alive() && w.inflight >= 0 ? 1 : 0;
    return n;
  };

  // Forward-declared so dispatch's failure path can recycle the worker.
  const auto handle_death = [&](WorkerProc& worker) {
    const bool expected = worker.quitting;
    if (worker.inflight >= 0) {
      pending.push_front(static_cast<std::uint64_t>(worker.inflight));
      worker.inflight = -1;
      obs::bump(obs::Metric::kDistUnitsRequeued);
    }
    reap(worker);
    if (!expected) {
      ++outcome.worker_failures;
      PAMR_LOG_WARN("worker died unexpectedly; requeueing its unit");
    }
  };

  const auto dispatch = [&](WorkerProc& worker) {
    const std::uint64_t unit_id = pending.front();
    pending.pop_front();
    worker.inflight = static_cast<std::int64_t>(unit_id);
    ++dispatched_new;
    obs::bump(obs::Metric::kDistUnitsDispatched);
    if (!write_all(worker.to_fd, to_wire(plan.units[unit_id].to_message()))) {
      handle_death(worker);  // pipe broke: requeue and let the loop respawn
    }
  };

  const auto handle_message = [&](WorkerProc& worker, const Message& message) {
    if (message.type == "error") {
      const std::string* text = message.find("text");
      throw std::runtime_error("worker reported: " +
                               (text != nullptr ? *text : std::string("unknown")));
    }
    if (message.type == "spans") {
      // Span batch: file under the worker's trace lane; never merged into
      // results.
      std::vector<obs::TraceSpan> spans;
      for (const auto& [key, value] : message.fields) {
        if (key != "s") continue;
        obs::TraceSpan span;
        if (obs::decode_span(value, span)) spans.push_back(std::move(span));
      }
      obs::add_remote_spans(worker.obs_pid, std::move(spans));
      return;
    }
    UnitResult result;
    if (!parse_unit_result(message, result, error)) throw std::runtime_error(error);
    if (const std::string* ctr = message.find("ctr")) {
      // Worker counter deltas fold into this process's registry. A failed
      // merge (version skew) degrades telemetry, never the campaign.
      std::string merge_error;
      // pamr-lint: obs-ok (side channel: deltas go registry-to-registry, never near the aggregate bytes)
      if (!obs::merge_cell_deltas(*ctr, merge_error)) {
        PAMR_LOG_WARN("dropping worker telemetry: " + merge_error);
      }
    }
    if (worker.inflight < 0 ||
        static_cast<std::uint64_t>(worker.inflight) != result.id) {
      throw std::runtime_error("worker answered unit " + std::to_string(result.id) +
                               " which it was never assigned");
    }
    worker.inflight = -1;
    if (!merger.add(result.id, result.aggregate, error)) {
      throw std::runtime_error(error);
    }
    journal.record(result.id, result.aggregate);
    ++outcome.units_run;
    if (stream.is_open()) {
      const WorkUnit& unit = plan.units[result.id];
      const scenario::Scenario& owner = *plan.entries[unit.unit.scenario_index].scenario;
      (void)stream.append_row(scenario::stream_csv_row(
          unit.scenario, owner.points[unit.unit.point_index].x, unit.unit,
          merger.partial(result.id)));
    }
  };

  try {
    while (!merger.complete()) {
      // Interruption checkpoint: the dispatch budget is spent and every
      // in-flight unit has drained.
      if (options.max_units != 0 && dispatched_new >= options.max_units &&
          inflight_count() == 0) {
        break;  // checkpoint: budget spent, in-flight units drained
      }
      if (pending.empty() && inflight_count() == 0 && !merger.complete()) {
        throw std::runtime_error("campaign stalled: no pending or in-flight units "
                                 "but results are missing");
      }

      // Feed idle workers; spawn replacements (within budget) if the pool
      // has thinned below what the pending queue can use.
      for (WorkerProc& worker : workers) {
        if (worker.alive() && !worker.quitting && worker.inflight < 0) {
          if (can_dispatch()) {
            dispatch(worker);
          } else {
            worker.quitting = true;
            (void)write_all(worker.to_fd, to_wire(make_quit()));
          }
        }
      }
      while (can_dispatch()) {
        std::size_t usable = 0;
        for (const WorkerProc& w : workers) {
          usable += w.alive() && !w.quitting ? 1 : 0;
        }
        if (usable >= options.workers) break;
        if (spawns >= max_spawns) {
          if (usable == 0 && inflight_count() == 0) {
            throw std::runtime_error("worker respawn budget exhausted with units "
                                     "still pending");
          }
          break;
        }
        workers.push_back(spawn_worker(options.worker_exe));
        ++spawns;
        obs::bump(obs::Metric::kDistWorkerSpawns);
        workers.back().obs_pid = static_cast<std::uint32_t>(workers.size());
        if (obs::trace_enabled()) {
          obs::set_process_label(workers.back().obs_pid,
                                 "worker " + std::to_string(workers.size()));
        }
        dispatch(workers.back());
      }

      // Wait for any worker to produce bytes or die.
      std::vector<pollfd> fds;
      std::vector<std::size_t> owners;
      for (std::size_t w = 0; w < workers.size(); ++w) {
        if (workers[w].alive()) {
          fds.push_back(pollfd{workers[w].from_fd, POLLIN, 0});
          owners.push_back(w);
        }
      }
      if (fds.empty()) continue;  // all dead: the spawn logic above retries
      while (poll(fds.data(), fds.size(), -1) < 0) {
        if (errno != EINTR) throw_errno("poll");
      }

      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        WorkerProc& worker = workers[owners[i]];
        char buffer[65536];
        const ssize_t n = read(worker.from_fd, buffer, sizeof buffer);
        if (n > 0) {
          std::vector<Message> messages;
          if (!worker.assembler.feed(std::string_view(buffer, static_cast<std::size_t>(n)),
                                     messages, error)) {
            throw std::runtime_error("protocol error from worker: " + error);
          }
          for (const Message& message : messages) handle_message(worker, message);
        } else if (n == 0 || (n < 0 && errno != EINTR)) {
          handle_death(worker);
        }
      }
    }
  } catch (...) {
    for (WorkerProc& worker : workers) reap(worker);
    throw;
  }

  for (WorkerProc& worker : workers) {
    if (worker.alive() && !worker.quitting) {
      (void)write_all(worker.to_fd, to_wire(make_quit()));
    }
    reap(worker);
  }

  outcome.complete = merger.complete();
  if (outcome.complete) outcome.results = merger.merge();
  outcome.elapsed_seconds = timer.elapsed_seconds();
  return outcome;
}

std::string self_executable(const char* argv0) {
  char buffer[4096];
  const ssize_t n = readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n > 0) return std::string(buffer, static_cast<std::size_t>(n));
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

}  // namespace dist
}  // namespace pamr
