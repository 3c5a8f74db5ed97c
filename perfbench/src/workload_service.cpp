// The service workload: a cachedse-server daemon (jobs=2, Unix socket)
// driven in a closed loop by 2 client threads, each over its own
// service::Client. A round is one step per PowerStone trace, largest first;
// in each step both clients run a cycle on that trace at once, each under a
// mask of its own. Every cycle uploads a fresh copy of its trace through
// trace-begin/trace-chunk/trace-end, then explores it by digest at 5%
// (computed: queue, prelude, solve, serialize), 10/15/20% (answered from the
// pinned prelude) and 5% again (a result-cache hit).
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analytic/explorer.hpp"
#include "bench.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "support/json.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

constexpr unsigned kClients = 2;
constexpr std::size_t kChunkRefs = 65'536;
// Requests per cycle: the upload, then five explores.
constexpr std::uint64_t kOpsPerCycle = 6;

// The daemon process: started on construction, healthy when the
// constructor returns, stopped (SIGTERM, then waited for) on destruction.
class Daemon {
 public:
  explicit Daemon(const std::string& dir) : dir_(dir) {
    std::filesystem::create_directories(dir_);
    socket_ = dir_ + "/s.sock";
    std::filesystem::remove(socket_);
    log_ = dir_ + "/requests.log";
    std::filesystem::remove(log_);
    // Uploads spill here, not to the daemon's default under /tmp: the
    // daemon leaves its spill files behind when it exits.
    spill_ = dir_ + "/spill";
    const std::string out = dir_ + "/server.out";
    const std::string socket_arg = "--socket=" + socket_;
    const std::string log_arg = "--log=" + log_;
    const std::string spill_arg = "--spill-dir=" + spill_;
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
      const int fd = open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
      }
      execl(PERFBENCH_SERVER_PATH, PERFBENCH_SERVER_PATH, socket_arg.c_str(),
            "--jobs=2", "--max-traces=4", log_arg.c_str(), spill_arg.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    const Clock::time_point start = Clock::now();
    for (;;) {
      try {
        // One attempt per poll: a retry would first sleep through the
        // client's backoff (25-50 ms) after a refused connect, and setup_s
        // would count that sleep as start-up time.
        const ces::service::Response health =
            MakeClient(1).Request("{\"id\":\"h\",\"op\":\"health\"}");
        if (health.ok && health.healthy) break;
      } catch (const std::exception&) {
        // not listening yet
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("cachedse-server exited during start-up");
      }
      if (SecondsBetween(start, Clock::now()) > 30) {
        Stop();
        throw std::runtime_error("cachedse-server not healthy after 30 s");
      }
      usleep(2'000);
    }
  }

  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  ces::service::Client MakeClient(int max_attempts = 2) const {
    ces::service::ClientOptions options;
    options.unix_path = socket_;
    options.timeout_ms = 60'000;
    options.max_attempts = max_attempts;
    options.jitter_seed = 1;
    return ces::service::Client(options);
  }

  double PeakRss() const { return ProcessPeakRssMb(pid_); }
  const std::string& log_path() const { return log_; }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    std::filesystem::remove(socket_);
    std::filesystem::remove_all(spill_);
  }

 private:
  std::string dir_;
  std::string socket_;
  std::string log_;
  std::string spill_;
  pid_t pid_ = -1;
};

// One cycle: which trace was uploaded under which mask, and what came back.
struct CycleRecord {
  std::uint64_t round = 0;
  unsigned client = 0;
  std::size_t base = 0;     // index of the uploaded PowerStone trace
  std::uint32_t mask = 0;   // XORed into every address of the upload
  std::vector<ces::service::Response> explores;  // 5%, 10%, 15%, 20%, 5%
  double computed_ms = 0.0;  // round trip of the first (computed) explore
};

struct Timings {
  std::vector<double> upload_ms, computed_ms, solved_ms, hit_ms;

  void Append(const Timings& other) {
    for (auto [to, from] : {std::pair{&upload_ms, &other.upload_ms},
                            std::pair{&computed_ms, &other.computed_ms},
                            std::pair{&solved_ms, &other.solved_ms},
                            std::pair{&hit_ms, &other.hit_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
};

// The content a cycle uploads: `base` with every address XORed with `mask`
// (below 2^address_bits). XOR with a constant maps the sets of every depth
// one-to-one onto themselves and keeps which address bits vary, so the
// miss profiles, the depth list and the answers are those of `base`. The
// content, and so the digest, is new: every cycle uploads and computes as
// a new trace would.
ces::trace::Trace Masked(const ces::trace::Trace& base, std::uint32_t mask,
                         std::uint64_t round, unsigned client) {
  ces::trace::Trace trace;
  trace.name =
      base.name + "-r" + std::to_string(round) + "c" + std::to_string(client);
  trace.kind = base.kind;
  trace.address_bits = base.address_bits;
  trace.refs.reserve(base.refs.size());
  for (std::uint32_t ref : base.refs) trace.refs.push_back(ref ^ mask);
  return trace;
}

// The mask of trace `base` for `client` in `round`, from the workload seed.
std::uint32_t MaskFor(std::uint64_t seed, std::uint64_t round,
                      std::size_t base, unsigned client,
                      std::uint32_t address_bits) {
  SeedRng rng(((seed * 1'000'003 + round) * 64 + base) * kClients + client);
  const std::uint64_t below = address_bits >= 32
                                  ? 0xffffffffull
                                  : (std::uint64_t{1} << address_bits) - 1;
  return static_cast<std::uint32_t>(rng.Next() & below);
}

ces::service::Response Expect(ces::service::Client& client,
                              const std::string& line) {
  ces::service::Response response = client.Request(line);
  if (!response.ok) {
    throw std::runtime_error(response.error_code + ": " +
                             response.error_message);
  }
  return response;
}

std::string Upload(ces::service::Client& client,
                   const ces::trace::Trace& trace) {
  using ces::support::JsonQuote;
  const std::string kind =
      trace.kind == ces::trace::StreamKind::kInstruction ? "instr" : "data";
  const ces::service::Response begin = Expect(
      client, "{\"id\":\"b\",\"op\":\"trace-begin\",\"count\":" +
                  std::to_string(trace.refs.size()) + ",\"kind\":\"" +
                  kind + "\",\"address_bits\":" +
                  std::to_string(trace.address_bits) +
                  ",\"name\":" + JsonQuote(trace.name) + "}");
  std::vector<std::string> chunks;
  for (std::size_t offset = 0, seq = 0; offset < trace.refs.size();
       offset += kChunkRefs, ++seq) {
    const std::size_t n = std::min(kChunkRefs, trace.refs.size() - offset);
    chunks.push_back(
        "{\"id\":\"c" + std::to_string(seq) +
        "\",\"op\":\"trace-chunk\",\"upload\":" + JsonQuote(begin.upload) +
        ",\"seq\":" + std::to_string(seq) + ",\"encoding\":\"base64\"" +
        ",\"payload\":" +
        JsonQuote(ces::service::protocol::EncodeChunkPayload(
            "base64", trace.refs.data() + offset, n)) +
        "}");
  }
  for (const ces::service::Response& response : client.Batch(chunks)) {
    if (!response.ok) {
      throw std::runtime_error("trace-chunk refused: " + response.error_code +
                               ": " + response.error_message);
    }
  }
  return Expect(client, "{\"id\":\"e\",\"op\":\"trace-end\",\"upload\":" +
                            JsonQuote(begin.upload) + "}")
      .digest;
}

// One cycle on one trace; appends its latencies to `timings` and returns
// the five explore responses.
std::vector<ces::service::Response> RunCycle(ces::service::Client& client,
                                             const ces::trace::Trace& trace,
                                             const Tracing& tracing,
                                             std::uint64_t op,
                                             Timings& timings) {
  std::vector<ces::service::Response> explores;
  Clock::time_point start = Clock::now();
  std::string digest;
  {
    const auto span = LayerSpan(tracing, "service.upload", op);
    digest = Upload(client, trace);
  }
  timings.upload_ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
  const double fractions[] = {0.05, 0.10, 0.15, 0.20, 0.05};
  const char* names[] = {"service.explore_computed", "service.explore_solved",
                         "service.explore_solved", "service.explore_solved",
                         "service.explore_hit"};
  for (int i = 0; i < 5; ++i) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "{\"id\":\"x%d\",\"op\":\"explore\",\"digest\":\"%s\","
                  "\"fraction\":%.2f}",
                  i, digest.c_str(), fractions[i]);
    start = Clock::now();
    {
      const auto span = LayerSpan(tracing, names[i], op);
      explores.push_back(Expect(client, line));
    }
    const double ms = SecondsBetween(start, Clock::now()) * 1e3;
    (i == 0 ? timings.computed_ms
            : i == 4 ? timings.hit_ms
                     : timings.solved_ms)
        .push_back(ms);
  }
  return explores;
}

// Every service answer against the offline Explorer, and `cached` true only
// on the repeat. The first round's cycles (and the first cycle of a trace
// that has none there) are explored offline on their own masked content. A
// later cycle is compared with the offline answers of its trace: XOR with a
// mask keeps the answers (see Masked), and the first round shows it for both
// clients' masks of every trace. Client 0's first-round answers also go to
// the checker, and the smallest of them to the checker's self-test.
void CheckCycles(const Options& options,
                 const std::vector<ces::trace::Trace>& bases,
                 const std::vector<CycleRecord>& records, Report& report) {
  using Answers = std::vector<ces::analytic::ExplorationResult>;
  // The earliest cycle of each trace; its offline answers are the trace's.
  std::vector<std::size_t> first(bases.size(), records.size());
  for (std::size_t r = 0; r < records.size(); ++r) {
    std::size_t& earliest = first[records[r].base];
    if (earliest == records.size() ||
        records[r].round < records[earliest].round) {
      earliest = r;
    }
  }
  std::vector<std::size_t> explored;  // records explored offline
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (records[r].round == 0 || r == first[records[r].base]) {
      explored.push_back(r);
    }
  }
  std::size_t self_test = records.size();
  for (std::size_t r : explored) {
    const CycleRecord& record = records[r];
    if (record.round == 0 && record.client == 0 &&
        (self_test == records.size() ||
         bases[record.base].size() <
             bases[records[self_test].base].size())) {
      self_test = r;
    }
  }
  if (self_test == records.size()) {
    report.Error("no first-round answer for the checker's self-test");
  }

  std::vector<Answers> offline(records.size());
  std::mutex mutex;
  std::vector<std::thread> threads;
  const std::size_t workers = std::min<std::size_t>(4, explored.size());
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t e = w; e < explored.size(); e += workers) {
        const std::size_t r = explored[e];
        const CycleRecord& record = records[r];
        const ces::trace::Trace trace =
            Masked(bases[record.base], record.mask, record.round,
                   record.client);
        std::vector<std::string> errors;
        try {
          ces::analytic::ExplorerOptions explorer_options;
          explorer_options.jobs = 1;
          const ces::analytic::Explorer explorer(trace, explorer_options);
          for (double fraction : kFractions) {
            offline[r].push_back(explorer.SolveFraction(fraction));
          }
          if (record.round == 0 && record.client == 0) {
            Answers served;
            for (std::size_t i = 0; i < 4 && i < record.explores.size();
                 ++i) {
              ces::analytic::ExplorationResult result;
              result.k = record.explores[i].k;
              result.points = record.explores[i].points;
              served.push_back(std::move(result));
            }
            const std::vector<oracle::Answer> answers =
                ToOracle(served, kFractions);
            CheckWithOracle(options, trace.name, trace.refs, 16, answers,
                            errors);
            if (r == self_test) {
              SelfTestOracle(trace.refs, 16, answers, errors);
            }
          }
        } catch (const std::exception& e) {
          errors.push_back(trace.name + ": " + e.what());
        }
        std::lock_guard<std::mutex> lock(mutex);
        for (const std::string& error : errors) report.Error(error);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t r = 0; r < records.size(); ++r) {
    const CycleRecord& record = records[r];
    const std::string name = bases[record.base].name + "-r" +
                             std::to_string(record.round) + "c" +
                             std::to_string(record.client);
    const Answers& reference = offline[first[record.base]];
    const Answers& expected = offline[r].empty() ? reference : offline[r];
    if (!offline[r].empty() && r != first[record.base]) {
      for (std::size_t i = 0; i < expected.size() && i < reference.size();
           ++i) {
        if (expected[i].k != reference[i].k ||
            expected[i].points != reference[i].points) {
          report.Error(name + ": offline answers differ between masks of " +
                       bases[record.base].name);
        }
      }
    }
    for (std::size_t i = 0; i < record.explores.size(); ++i) {
      const ces::service::Response& response = record.explores[i];
      const std::size_t f = i < 4 ? i : 0;
      if (f >= expected.size()) continue;  // offline exploration failed
      if (response.k != expected[f].k ||
          response.points != expected[f].points) {
        report.Error(name + ": service answer at " +
                     std::to_string(kFractions[f]) +
                     " differs from the offline Explorer");
      }
      if (response.cached != (i == 4)) {
        report.Error(name + ": cached=" +
                     (response.cached ? "true" : "false") + " on request " +
                     std::to_string(i));
      }
    }
  }
}

// p50 of queue_us / exec_us over the computed explores of the request log.
void ReportLog(const std::string& path, Report& report) {
  std::ifstream in(path);
  std::vector<double> queue_us, exec_us;
  for (std::string line; std::getline(in, line);) {
    const ces::service::JsonValue entry = ces::service::ParseJson(line);
    const ces::service::JsonValue* op = entry.Find("op");
    const ces::service::JsonValue* outcome = entry.Find("outcome");
    if (op == nullptr || outcome == nullptr || op->string != "explore" ||
        outcome->string != "computed") {
      continue;
    }
    queue_us.push_back(entry.Find("queue_us")->number);
    exec_us.push_back(entry.Find("exec_us")->number);
  }
  report.Set("service.queue_us_p50", Median(queue_us), "us");
  report.Set("service.exec_us_p50", Median(exec_us), "us");
}

void ReportStats(const Daemon& daemon, Report& report) {
  const ces::service::Response stats =
      daemon.MakeClient().Request("{\"id\":\"s\",\"op\":\"stats\"}");
  // {"server":{...},"metrics":{"counters":{...},...}}
  const ces::service::JsonValue root = ces::service::ParseJson(stats.raw);
  const ces::service::JsonValue* counters = nullptr;
  if (const ces::service::JsonValue* metrics = root.Find("metrics")) {
    counters = metrics->Find("counters");
  }
  auto counter = [&](const char* name) {
    const ces::service::JsonValue* value =
        counters == nullptr ? nullptr : counters->Find(name);
    return value == nullptr ? 0.0 : value->number;
  };
  report.Set("service.prelude_built", counter("service.prelude.built"),
             "count");
  report.Set("service.prelude_reused", counter("service.prelude.reused"),
             "count");
  report.Set("service.cache_hits", counter("service.cache.hit"), "count");
}

void ReportClientSplit(const Timings& timings, Report& report) {
  report.Set("service.upload_ms_p50", Median(timings.upload_ms), "ms");
  report.Set("service.solved_ms_p50", Median(timings.solved_ms), "ms");
  report.Set("service.hit_ms_p50", Median(timings.hit_ms), "ms");
}

// The timed closed loop. A round is one step per trace of `bases`, largest
// first. In a step, each of the kClients threads runs one cycle on the
// step's trace under its own mask, and the clients wait for each other
// before the next step; whole rounds run until `seconds` have passed. The
// daemon works through its queue on one dispatch thread, so a request waits
// for what the other client queued before it. In lock step, every round
// puts the same pairs of requests side by side. When the clients took a
// round's cycles in turn instead, which small cycles met the 5.57M-reference
// fir.i upload and prelude depended on the host's speed: the computed
// latency of one 552k-reference trace read 42 ms in one round and 214 ms in
// the next. Rounds are numbered on from `next_round`; their cycles are
// appended to `records` and their latencies to `all`.
void MeasureLoop(const Options& options, const Daemon& daemon,
                 const std::vector<ces::trace::Trace>& bases, double seconds,
                 const Tracing& tracing, std::uint64_t& next_round,
                 std::vector<CycleRecord>& records, Timings& all,
                 Report& report) {
  std::vector<std::size_t> order(bases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return bases[a].size() > bases[b].size();
                   });
  std::uint64_t round = next_round;
  std::size_t step = 0;
  bool stop = false;
  const Clock::time_point start = Clock::now();
  // Runs once per step, after every client has finished its cycle.
  auto end_step = [&]() noexcept {
    if (++step < order.size()) return;
    step = 0;
    ++round;
    stop = SecondsBetween(start, Clock::now()) >= seconds;
  };
  std::barrier sync(kClients, end_step);

  std::mutex mutex;
  Timings loop;
  std::uint64_t refs = 0, failed = 0;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ces::service::Client client = daemon.MakeClient();
      Timings mine;
      std::vector<CycleRecord> kept;
      std::uint64_t my_refs = 0, my_failed = 0;
      do {
        const std::size_t base = order[step];
        try {
          CycleRecord record;
          record.round = round;
          record.client = c;
          record.base = base;
          record.mask = MaskFor(options.seed, round, base, c,
                                bases[base].address_bits);
          const ces::trace::Trace trace =
              Masked(bases[base], record.mask, round, c);
          record.explores =
              RunCycle(client, trace, tracing,
                       (round * 64 + base) * kClients + c, mine);
          record.computed_ms = mine.computed_ms.back();
          my_refs += trace.refs.size();
          kept.push_back(std::move(record));
        } catch (const std::exception& e) {
          ++my_failed;
          std::fprintf(stderr, "perfbench: service cycle: %s\n", e.what());
        }
        sync.arrive_and_wait();
      } while (!stop);
      std::lock_guard<std::mutex> lock(mutex);
      refs += my_refs;
      failed += my_failed;
      for (CycleRecord& record : kept) records.push_back(std::move(record));
      loop.Append(mine);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall = SecondsBetween(start, Clock::now());
  report.attempted +=
      (round - next_round) * bases.size() * kClients * kOpsPerCycle;
  report.failed += failed * kOpsPerCycle;
  report.Set("peak_rss_mb", daemon.PeakRss(), "MiB");
  // Every completed cycle's trace counted once, over the loop's wall time.
  report.Set("refs_per_s", static_cast<double>(refs) / wall, "1/s");
  // The median of the per-round medians, as MeasureRounds reports it.
  std::vector<std::vector<double>> by_round(round - next_round);
  for (const CycleRecord& record : records) {
    if (record.round >= next_round) {
      by_round[record.round - next_round].push_back(record.computed_ms);
    }
  }
  std::vector<double> round_medians;
  for (const std::vector<double>& latencies : by_round) {
    round_medians.push_back(Median(latencies));
  }
  report.Set("explore_ms_p50", Median(round_medians), "ms");
  next_round = round;
  all.Append(loop);
}

// The PowerStone traces the set-up step wrote, named and kinded for upload.
std::vector<ces::trace::Trace> LoadBases(
    const std::vector<InputFile>& inputs) {
  std::vector<ces::trace::Trace> bases;
  for (const InputFile& input : inputs) {
    ces::trace::Trace trace = ces::trace::LoadFromFile(input.path);
    trace.name = input.program + "." + input.kind;
    trace.kind = input.kind == "i" ? ces::trace::StreamKind::kInstruction
                                   : ces::trace::StreamKind::kData;
    bases.push_back(std::move(trace));
  }
  return bases;
}

}  // namespace

void StartStopDaemon(const Options& options) { Daemon daemon(options.dir); }

void RunService(const Options& options, Report& report) {
  const std::vector<InputFile> inputs = ReadInputs(options.dir);
  const std::vector<ces::trace::Trace> bases = LoadBases(inputs);
  Daemon daemon(options.dir);
  Tracing tracing;
  std::uint64_t next_round = 0;
  std::vector<CycleRecord> records;
  Timings timings;
  MeasureMaybeTraced(
      options, tracing,
      [&](double seconds, Report& into) {
        MeasureLoop(options, daemon, bases, seconds, tracing, next_round,
                    records, timings, into);
      },
      report);
  if (options.trace) {
    ReportClientSplit(timings, report);
    ReportStats(daemon, report);
  }
  daemon.Stop();
  if (options.trace) ReportLog(daemon.log_path(), report);

  const std::uint64_t cycles = next_round * bases.size() * kClients;
  if (records.size() != cycles) {
    report.Error(std::to_string(cycles - records.size()) + " of " +
                 std::to_string(cycles) + " cycles have no answer to check");
  }
  if (options.corrupt && !records.empty()) {
    ++records.front().explores.front().points.front().warm_misses;
  }
  CheckCycles(options, bases, records, report);

  if (options.trace) {
    std::vector<std::string> paths;
    std::size_t smallest = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      paths.push_back(inputs[i].path);
      if (inputs[i].refs < inputs[smallest].refs) smallest = i;
    }
    ProbeAnalytic(paths, 16, report);
    ProbeJoint({ProbePair(bases[smallest], 100'000)}, report);
    if (!options.trace_out.empty()) {
      tracing.sink.WriteJsonFile(options.trace_out);
    }
  }
}

void ProbeService(const Options& options,
                  const std::vector<ces::trace::Trace>& traces,
                  Report& report) {
  Daemon daemon(options.dir + "/probe-daemon");
  ces::service::Client client = daemon.MakeClient();
  const Tracing tracing;
  Timings timings;
  std::vector<CycleRecord> records;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    CycleRecord record;
    record.base = i;
    record.explores = RunCycle(client, traces[i], tracing, i, timings);
    records.push_back(std::move(record));
  }
  ReportClientSplit(timings, report);
  ReportStats(daemon, report);
  daemon.Stop();
  ReportLog(daemon.log_path(), report);
  Options quiet = options;
  quiet.corrupt = false;
  CheckCycles(quiet, traces, records, report);
}

}  // namespace perfbench
