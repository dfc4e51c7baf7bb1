#include "exp/repro.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/json.h"
#include "common/report_envelope.h"
#include "exp/run_record.h"
#include "trace/report.h"

namespace kivati {
namespace exp {
namespace {

using json::Append;

std::string SpecJson(const RunSpec& spec) {
  if (spec.prebuilt != nullptr) {
    throw std::runtime_error("cannot save a repro for a prebuilt workload "
                             "(no way to echo it into JSON)");
  }
  if (spec.config_override.has_value()) {
    throw std::runtime_error("cannot save a repro for a config_override spec");
  }
  std::string out = "{";
  Append(out, "label", spec.label);
  if (!spec.bug.empty()) {
    Append(out, "bug", spec.bug);
  } else if (!spec.app.empty()) {
    Append(out, "app", spec.app);
  } else {
    Append(out, "source", spec.source_path);
    out += "\"threads\":[";
    for (std::size_t i = 0; i < spec.threads.size(); ++i) {
      out += i != 0 ? ",[" : "[";
      json::AppendQuoted(out, spec.threads[i].first);
      out += ',';
      out += std::to_string(spec.threads[i].second) + "]";
    }
    out += "],";
  }
  Append(out, "workers", static_cast<std::uint64_t>(spec.scale.workers));
  Append(out, "iterations", static_cast<std::uint64_t>(spec.scale.iterations));
  Append(out, "prune", spec.scale.prune);
  Append(out, "interprocedural", spec.scale.annotator.interprocedural);
  Append(out, "precise_aliasing", spec.scale.annotator.precise_aliasing);
  Append(out, "cores", static_cast<std::uint64_t>(spec.machine.num_cores));
  Append(out, "watchpoints", static_cast<std::uint64_t>(spec.machine.watchpoints_per_core));
  Append(out, "quantum", spec.machine.quantum);
  Append(out, "seed", spec.machine.seed);
  Append(out, "policy",
         spec.machine.policy == SchedPolicy::kRandom ? "random" : "round-robin");
  Append(out, "trap_delivery",
         spec.machine.trap_delivery == TrapDelivery::kBefore ? "before" : "after");
  Append(out, "vanilla", spec.vanilla);
  Append(out, "preset", ToString(spec.preset));
  Append(out, "mode", ToString(spec.mode));
  Append(out, "pause_ms", spec.pause_ms);
  if (!spec.whitelist_path.empty()) {
    Append(out, "whitelist_path", spec.whitelist_path);
  }
  if (spec.whitelist_sync_vars.has_value()) {
    Append(out, "whitelist_sync_vars", *spec.whitelist_sync_vars);
  }
  if (spec.budget.has_value()) {
    Append(out, "budget", *spec.budget);
  }
  Append(out, "latency_tag", static_cast<std::uint64_t>(spec.latency_tag), /*comma=*/false);
  out += "}";
  return out;
}

std::string TraceJson(const ScheduleTrace& trace) {
  std::string out = "{";
  Append(out, "seed", trace.seed);
  Append(out, "shrunk", trace.shrunk);
  out += "\"decisions\":[";
  for (std::size_t i = 0; i < trace.decisions.size(); ++i) {
    const SchedDecision& d = trace.decisions[i];
    if (i != 0) {
      out += ",";
    }
    out += "[\"";
    out += ToString(d.kind);
    out += "\",";
    out += std::to_string(d.value) + "," + std::to_string(d.choices) + "," +
           std::to_string(d.subject) + "," + std::to_string(d.instr) + "]";
  }
  out += "],\"checkpoints\":[";
  for (std::size_t i = 0; i < trace.checkpoints.size(); ++i) {
    const SchedCheckpoint& c = trace.checkpoints[i];
    if (i != 0) {
      out += ",";
    }
    out += "[" + std::to_string(c.instr) + "," + std::to_string(c.thread) + "," +
           std::to_string(c.core) + "]";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Reading: the schema mapping over json::Parse's tree.
// ---------------------------------------------------------------------------

using json::Value;

[[noreturn]] void SchemaFail(const std::string& what) {
  throw std::runtime_error("repro JSON: " + what);
}

const Value& Require(const Value& obj, const std::string& key) {
  const Value* v = obj.Find(key);
  if (v == nullptr) {
    SchemaFail("missing key '" + key + "'");
  }
  return *v;
}

std::uint64_t AsUint(const Value& v, const std::string& where) {
  if (v.type != Value::Type::kNumber || !v.is_uint) {
    SchemaFail("'" + where + "' must be an unsigned integer");
  }
  return v.uinteger;
}

// AsUint narrowed to T, rejecting values T cannot hold instead of
// truncating them (exp::Validate applies the semantic bounds).
template <typename T>
T AsUintOf(const Value& v, const std::string& where) {
  const std::uint64_t value = AsUint(v, where);
  if (value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    SchemaFail("'" + where + "' is out of range (" + std::to_string(value) + ")");
  }
  return static_cast<T>(value);
}

const std::vector<Value>& AsArray(const Value& v, const std::string& where,
                                  std::size_t size = 0) {
  if (v.type != Value::Type::kArray || (size != 0 && v.array.size() != size)) {
    SchemaFail("'" + where + "' must be an array" +
               (size != 0 ? " of " + std::to_string(size) : std::string()));
  }
  return v.array;
}

double AsDouble(const Value& v, const std::string& where) {
  if (v.type != Value::Type::kNumber) {
    SchemaFail("'" + where + "' must be a number");
  }
  return v.number;
}

bool AsBool(const Value& v, const std::string& where) {
  if (v.type != Value::Type::kBool) {
    SchemaFail("'" + where + "' must be a boolean");
  }
  return v.boolean;
}

const std::string& AsString(const Value& v, const std::string& where) {
  if (v.type != Value::Type::kString) {
    SchemaFail("'" + where + "' must be a string");
  }
  return v.string;
}

RunSpec SpecFromJson(const Value& j) {
  RunSpec spec;
  spec.label = AsString(Require(j, "label"), "label");
  if (const Value* bug = j.Find("bug")) {
    spec.bug = AsString(*bug, "bug");
  } else if (const Value* app = j.Find("app")) {
    spec.app = AsString(*app, "app");
  } else if (const Value* source = j.Find("source")) {
    spec.source_path = AsString(*source, "source");
    for (const Value& t : AsArray(Require(j, "threads"), "threads")) {
      const std::vector<Value>& entry = AsArray(t, "thread [function, arg]", 2);
      spec.threads.emplace_back(AsString(entry[0], "thread function"),
                                AsUint(entry[1], "thread arg"));
    }
  } else {
    SchemaFail("spec needs one of 'bug', 'app', 'source'");
  }
  spec.scale.workers = AsUintOf<int>(Require(j, "workers"), "workers");
  spec.scale.iterations = AsUintOf<int>(Require(j, "iterations"), "iterations");
  spec.scale.prune = AsBool(Require(j, "prune"), "prune");
  spec.scale.annotator.interprocedural =
      AsBool(Require(j, "interprocedural"), "interprocedural");
  spec.scale.annotator.precise_aliasing =
      AsBool(Require(j, "precise_aliasing"), "precise_aliasing");
  spec.machine.num_cores = AsUintOf<unsigned>(Require(j, "cores"), "cores");
  spec.machine.watchpoints_per_core = AsUintOf<unsigned>(Require(j, "watchpoints"), "watchpoints");
  spec.machine.quantum = AsUint(Require(j, "quantum"), "quantum");
  spec.machine.seed = AsUint(Require(j, "seed"), "seed");
  const std::string& policy = AsString(Require(j, "policy"), "policy");
  if (policy == "random") {
    spec.machine.policy = SchedPolicy::kRandom;
  } else if (policy == "round-robin") {
    spec.machine.policy = SchedPolicy::kRoundRobin;
  } else {
    SchemaFail("unknown policy '" + policy + "'");
  }
  const std::string& delivery = AsString(Require(j, "trap_delivery"), "trap_delivery");
  if (delivery == "after") {
    spec.machine.trap_delivery = TrapDelivery::kAfter;
  } else if (delivery == "before") {
    spec.machine.trap_delivery = TrapDelivery::kBefore;
  } else {
    SchemaFail("unknown trap_delivery '" + delivery + "'");
  }
  spec.vanilla = AsBool(Require(j, "vanilla"), "vanilla");
  if (!ParsePreset(AsString(Require(j, "preset"), "preset"), &spec.preset)) {
    SchemaFail("unknown preset");
  }
  if (!ParseMode(AsString(Require(j, "mode"), "mode"), &spec.mode)) {
    SchemaFail("unknown mode");
  }
  spec.pause_ms = AsDouble(Require(j, "pause_ms"), "pause_ms");
  if (const Value* path = j.Find("whitelist_path")) {
    spec.whitelist_path = AsString(*path, "whitelist_path");
  }
  if (const Value* wl = j.Find("whitelist_sync_vars")) {
    spec.whitelist_sync_vars = AsBool(*wl, "whitelist_sync_vars");
  }
  if (const Value* budget = j.Find("budget")) {
    spec.budget = AsUint(*budget, "budget");
  }
  if (const Value* tag = j.Find("latency_tag")) {
    spec.latency_tag = static_cast<std::int64_t>(AsUint(*tag, "latency_tag"));
  }
  return spec;
}

ScheduleTrace TraceFromJson(const Value& j) {
  ScheduleTrace trace;
  trace.seed = AsUint(Require(j, "seed"), "trace.seed");
  trace.shrunk = AsBool(Require(j, "shrunk"), "trace.shrunk");
  for (const Value& entry : AsArray(Require(j, "decisions"), "decisions")) {
    const std::vector<Value>& d =
        AsArray(entry, "decision [kind, value, choices, subject, instr]", 5);
    SchedDecision decision;
    const std::string& kind = AsString(d[0], "decision kind");
    if (kind == "pick") {
      decision.kind = SchedDecisionKind::kPick;
    } else if (kind == "pause") {
      decision.kind = SchedDecisionKind::kPause;
    } else {
      SchemaFail("unknown decision kind '" + kind + "'");
    }
    decision.value = AsUintOf<std::uint32_t>(d[1], "decision value");
    decision.choices = AsUintOf<std::uint32_t>(d[2], "decision choices");
    decision.subject = AsUintOf<ThreadId>(d[3], "decision subject");
    decision.instr = AsUint(d[4], "decision instr");
    trace.decisions.push_back(decision);
  }
  for (const Value& entry : AsArray(Require(j, "checkpoints"), "checkpoints")) {
    const std::vector<Value>& c = AsArray(entry, "checkpoint [instr, thread, core]", 3);
    SchedCheckpoint checkpoint;
    checkpoint.instr = AsUint(c[0], "checkpoint instr");
    checkpoint.thread = AsUintOf<ThreadId>(c[1], "checkpoint thread");
    checkpoint.core = AsUintOf<CoreId>(c[2], "checkpoint core");
    trace.checkpoints.push_back(checkpoint);
  }
  return trace;
}

}  // namespace

bool MatchesTarget(const ReproTarget& target, const ViolationRecord& v) {
  return v.ar_id == target.ar && v.addr == target.addr && v.size == target.size &&
         ViolationPattern(v) == target.pattern;
}

ReproArtifact MakeReproArtifact(const RunSpec& spec, const ScheduleTrace& trace,
                                const std::vector<ViolationRecord>& violations) {
  ReproArtifact artifact;
  artifact.spec = spec;
  artifact.spec.record_schedule = false;
  artifact.spec.replay_schedule = nullptr;
  artifact.trace = trace;
  artifact.violations = violations.size();
  if (!violations.empty()) {
    const ViolationRecord& v = violations.front();
    artifact.has_target = true;
    artifact.target.ar = v.ar_id;
    artifact.target.pattern = ViolationPattern(v);
    artifact.target.addr = v.addr;
    artifact.target.size = v.size;
  }
  return artifact;
}

std::string ToJson(const ReproArtifact& artifact) {
  std::string out = report::EnvelopePrefix({"kivati_repro", 1});
  out += "\"spec\":" + SpecJson(artifact.spec) + ",";
  Append(out, "violations", static_cast<std::uint64_t>(artifact.violations));
  if (artifact.has_target) {
    out += "\"target\":{";
    Append(out, "ar", static_cast<std::uint64_t>(artifact.target.ar));
    Append(out, "pattern", artifact.target.pattern);
    Append(out, "addr", artifact.target.addr);
    Append(out, "size", static_cast<std::uint64_t>(artifact.target.size), /*comma=*/false);
    out += "},";
  }
  out += "\"trace\":" + TraceJson(artifact.trace);
  out += "}\n";
  return out;
}

ReproArtifact ReproFromJson(const std::string& text) {
  const Value root = json::Parse(text);
  if (root.type != Value::Type::kObject) {
    SchemaFail("top level must be an object");
  }
  if (AsString(Require(root, "kind"), "kind") != "kivati_repro") {
    SchemaFail("not a kivati_repro file");
  }
  ReproArtifact artifact;
  artifact.spec = SpecFromJson(Require(root, "spec"));
  Validate(artifact.spec);
  artifact.violations = AsUintOf<std::size_t>(Require(root, "violations"), "violations");
  if (const Value* target = root.Find("target")) {
    artifact.has_target = true;
    artifact.target.ar = AsUintOf<ArId>(Require(*target, "ar"), "target.ar");
    artifact.target.pattern = AsString(Require(*target, "pattern"), "target.pattern");
    artifact.target.addr = AsUint(Require(*target, "addr"), "target.addr");
    artifact.target.size = AsUintOf<unsigned>(Require(*target, "size"), "target.size");
  }
  artifact.trace = TraceFromJson(Require(root, "trace"));
  return artifact;
}

void SaveRepro(const ReproArtifact& artifact, const std::string& path) {
  const std::string json = ToJson(artifact);
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
  out << json;
  if (!out) {
    throw std::runtime_error("error writing '" + path + "'");
  }
}

ReproArtifact LoadRepro(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ReproFromJson(buffer.str());
}

}  // namespace exp
}  // namespace kivati
