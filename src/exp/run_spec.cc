#include "exp/run_spec.h"

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "compile/compiler.h"
#include "runtime/whitelist.h"

namespace kivati {
namespace exp {
namespace {

std::string ReadFileOrThrow(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Lowercase, with the accepted separators folded to '-'.
std::string CanonicalBugKey(const std::string& name) {
  std::string key;
  key.reserve(name.size());
  for (char c : name) {
    if (c == ':' || c == ' ' || c == '_') {
      key += '-';
    } else {
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return key;
}

template <typename T>
void CheckRange(const char* field, T value, std::type_identity_t<T> min,
                std::type_identity_t<T> max) {
  if (!(value >= min && value <= max)) {  // NaN compares false
    std::ostringstream message;
    message << "RunSpec: " << field << " " << value << " is out of range [" << min << ", "
            << max << "]";
    throw std::runtime_error(message.str());
  }
}

}  // namespace

void Validate(const RunSpec& spec) {
  CheckRange("cores", spec.machine.num_cores, 1, kMaxCores);
  CheckRange("watchpoints", spec.machine.watchpoints_per_core, 1, kMaxWatchpointCount);
  CheckRange("app workers", spec.scale.workers, 1, kMaxAppWorkers);
  CheckRange("app iterations", spec.scale.iterations, 1, kMaxAppIterations);
  CheckRange("quantum", spec.machine.quantum, 1, std::numeric_limits<Cycles>::max());
  CheckRange("pause_ms", spec.pause_ms, 0.0, kMaxPauseMs);
}

std::vector<std::string> CorpusBugNames() {
  std::vector<std::string> names;
  for (const apps::BugInfo& bug : apps::BugCorpus()) {
    names.push_back(bug.app + "-" + bug.id);
  }
  return names;
}

std::vector<std::string> MultiVarBugNames() {
  std::vector<std::string> names;
  for (const apps::BugInfo& bug : apps::MultiVarBugCorpus()) {
    names.push_back(bug.app + "-" + bug.id);
  }
  return names;
}

const apps::BugInfo* FindCorpusBug(const std::string& name) {
  const std::string key = CanonicalBugKey(name);
  for (const apps::BugInfo& bug : apps::BugCorpus()) {
    if (CanonicalBugKey(bug.app + "-" + bug.id) == key) {
      return &bug;
    }
  }
  for (const apps::BugInfo& bug : apps::MultiVarBugCorpus()) {
    if (CanonicalBugKey(bug.app + "-" + bug.id) == key) {
      return &bug;
    }
  }
  return nullptr;
}

std::string UnknownBugMessage(const std::string& name) {
  std::string known;
  for (const auto& corpus : {CorpusBugNames(), MultiVarBugNames()}) {
    for (const std::string& bug : corpus) {
      if (!known.empty()) {
        known += ", ";
      }
      known += bug;
    }
  }
  return "unknown bug '" + name + "' (known: " + known + ")";
}

const std::vector<std::string>& RegisteredApps() {
  static const std::vector<std::string> kNames = {"nss", "vlc", "webstone", "tpcw", "specomp"};
  return kNames;
}

std::shared_ptr<const apps::App> MakeRegisteredApp(const std::string& name,
                                                   const apps::LoadScale& scale) {
  if (name == "nss") {
    return std::make_shared<const apps::App>(apps::MakeNss(scale));
  }
  if (name == "vlc") {
    return std::make_shared<const apps::App>(apps::MakeVlc(scale));
  }
  if (name == "webstone") {
    return std::make_shared<const apps::App>(apps::MakeWebstone(scale));
  }
  if (name == "tpcw") {
    return std::make_shared<const apps::App>(apps::MakeTpcw(scale));
  }
  if (name == "specomp") {
    return std::make_shared<const apps::App>(apps::MakeSpecOmp(scale));
  }
  std::string known;
  for (const std::string& app : RegisteredApps()) {
    known += (known.empty() ? "" : ", ") + app;
  }
  throw std::runtime_error("unknown app '" + name + "' (known: " + known + ")");
}

std::shared_ptr<const apps::App> ResolveApp(const RunSpec& spec) {
  const int sources = (spec.prebuilt != nullptr) + !spec.app.empty() +
                      !spec.source_path.empty() + !spec.bug.empty();
  if (sources != 1) {
    throw std::runtime_error("RunSpec needs exactly one workload source "
                             "(app, source file, corpus bug, or prebuilt workload)");
  }
  if (spec.prebuilt != nullptr) {
    return spec.prebuilt;
  }
  if (!spec.app.empty()) {
    return MakeRegisteredApp(spec.app, spec.scale);
  }
  if (!spec.bug.empty()) {
    const apps::BugInfo* bug = FindCorpusBug(spec.bug);
    if (bug == nullptr) {
      throw std::runtime_error(UnknownBugMessage(spec.bug));
    }
    return std::make_shared<const apps::App>(
        apps::MakeBugApp(*bug, spec.scale.prune, spec.scale.correlate));
  }
  std::vector<std::pair<std::string, std::uint64_t>> threads = spec.threads;
  if (threads.empty()) {
    threads.emplace_back("main", 0);
  }
  CompileOptions compile_options;
  compile_options.annotator = spec.scale.annotator;
  compile_options.conflict.prune = spec.scale.prune;
  compile_options.correlate = spec.scale.correlate;
  // Thread roots for the conflict analysis: each distinct entry function
  // with the number of threads started on it.
  for (const auto& [function, arg] : threads) {
    (void)arg;
    bool found = false;
    for (auto& [name, count] : compile_options.conflict.roots) {
      if (name == function) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) {
      compile_options.conflict.roots.emplace_back(function, 1);
    }
  }
  auto compiled = std::make_shared<CompiledProgram>(
      CompileSource(ReadFileOrThrow(spec.source_path), compile_options));
  auto app = std::make_shared<apps::App>();
  app->workload.name = spec.source_path;
  app->workload.program = compiled->program;
  app->workload.threads = std::move(threads);
  app->workload.init = [compiled](AddressSpace& memory) { compiled->InitMemory(memory); };
  app->workload.sync_var_ars = compiled->sync_ars;
  app->workload.ars_annotated = compiled->num_ars;
  app->workload.ars_no_remote_writer = compiled->conflict.no_remote_writer;
  app->workload.ars_lock_protected = compiled->conflict.lock_protected;
  app->workload.ars_watch_required = compiled->conflict.watch_required;
  app->workload.ars_pruned = compiled->conflict.pruned.size();
  app->compiled = compiled;
  for (const auto& [function, arg] : app->workload.threads) {
    (void)arg;
    if (app->workload.program.FindFunction(function) == nullptr) {
      throw std::runtime_error("no function '" + function + "' in " + spec.source_path);
    }
  }
  return app;
}

bool WhitelistsSyncVars(const RunSpec& spec) {
  if (spec.whitelist_sync_vars.has_value()) {
    return *spec.whitelist_sync_vars;
  }
  return spec.preset == OptimizationPreset::kSyncVars ||
         spec.preset == OptimizationPreset::kOptimized;
}

EngineOptions MakeEngineOptions(const RunSpec& spec) {
  EngineOptions options;
  options.machine = spec.machine;
  if (spec.vanilla) {
    return options;
  }
  KivatiConfig config;
  if (spec.config_override.has_value()) {
    config = *spec.config_override;
  } else {
    config = KivatiConfig::PresetFor(spec.preset, spec.mode);
    config.bugfinding_pause_ms = spec.pause_ms;
  }
  if (!spec.whitelist_path.empty()) {
    Whitelist whitelist;
    if (!whitelist.LoadFromFile(spec.whitelist_path)) {
      throw std::runtime_error("cannot read whitelist '" + spec.whitelist_path + "'");
    }
    config.whitelist = whitelist.ids();
  }
  options.kivati = config;
  options.whitelist_sync_vars = WhitelistsSyncVars(spec);
  return options;
}

BuiltRun BuildEngine(const RunSpec& spec) {
  Validate(spec);  // before ResolveApp builds the workload from spec.scale
  return BuildEngine(spec, ResolveApp(spec));
}

BuiltRun BuildEngine(const RunSpec& spec, std::shared_ptr<const apps::App> app) {
  Validate(spec);
  const int drivers = spec.record_schedule + (spec.replay_schedule != nullptr) +
                      (spec.guided_schedule != nullptr);
  if (drivers > 1) {
    throw std::runtime_error(
        "RunSpec allows at most one of record/replay/guided schedule");
  }
  BuiltRun run;
  run.app = std::move(app);
  run.options = MakeEngineOptions(spec);
  run.engine = std::make_unique<Engine>(run.app->workload, run.options, spec.image);
  if (spec.record_schedule) {
    run.engine->RecordSchedule();
  } else if (spec.replay_schedule != nullptr) {
    // Shrunk traces are decision subsets, not full transcripts: always loose.
    const bool strict = spec.replay_strict && !spec.replay_schedule->shrunk;
    run.engine->ReplaySchedule(spec.replay_schedule, strict);
  } else if (spec.guided_schedule != nullptr) {
    run.engine->GuideSchedule(spec.guided_schedule);
  }
  if (spec.hb_detector) {
    detect::HbDetectorOptions hb_options;
    if (run.app->compiled != nullptr) {
      hb_options.lock_addrs.insert(run.app->compiled->lock_addrs.begin(),
                                   run.app->compiled->lock_addrs.end());
    }
    run.hb = std::make_unique<detect::HbLocksetDetector>(std::move(hb_options));
    run.engine->trace().hub().Attach(run.hb.get());
  }
  return run;
}

}  // namespace exp
}  // namespace kivati
