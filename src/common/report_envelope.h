// The one JSON document header every Kivati report mode shares.
//
// Every command that emits a machine-readable report (`run --json`,
// `sweep`, `analyze`, `annotate`, `fuzz`, `shrink`, `compare`, repro
// artifacts) wraps its payload in the same envelope: a single JSON object
// whose first two keys are `kind` (the report type, "kivati_<command>") and
// `schema_version`, followed by an echo of the spec/options that produced
// it. Downstream tooling dispatches on those two keys without knowing the
// payload shapes. tests/cli_test.cc holds every --json mode to this
// contract by parsing its output with json::Parse (common/json.h) and
// checking the first two keys.
#ifndef KIVATI_COMMON_REPORT_ENVELOPE_H_
#define KIVATI_COMMON_REPORT_ENVELOPE_H_

#include <cstdint>
#include <string>

namespace kivati {
namespace report {

struct Envelope {
  std::string kind;  // "kivati_run", "kivati_sweep", ...
  std::uint64_t schema_version = 1;
};

// The canonical document opening: `{"kind":"<kind>","schema_version":N,`.
// Emitters append their payload fields and the closing brace.
std::string EnvelopePrefix(const Envelope& envelope);

}  // namespace report
}  // namespace kivati

#endif  // KIVATI_COMMON_REPORT_ENVELOPE_H_
