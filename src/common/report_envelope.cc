#include "common/report_envelope.h"

#include <string>

namespace kivati {
namespace report {

std::string EnvelopePrefix(const Envelope& envelope) {
  return "{\"kind\":\"" + envelope.kind +
         "\",\"schema_version\":" + std::to_string(envelope.schema_version) + ",";
}

}  // namespace report
}  // namespace kivati
