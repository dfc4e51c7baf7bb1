// Integration tests of bench/paper_tables: entry selection, the
// KIVATI_BENCH_WORKERS check and the --check claims gate. Every case runs
// only Table 1 (a hand-built demo, no runner) or fails before any run starts.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace kivati {
namespace {

#ifndef KIVATI_PAPER_TABLES_PATH
#error "KIVATI_PAPER_TABLES_PATH must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

// Runs paper_tables with `args` through the shell; `redirect` picks the
// captured stream ("2>&1" for both, "2>&1 >/dev/null" for stderr only).
CommandResult RunPaperTables(const std::string& args, const std::string& redirect = "2>&1",
                             const std::string& env = "") {
  const std::string command = env + " " + KIVATI_PAPER_TABLES_PATH + " " + args + " " + redirect;
  std::array<char, 4096> buffer;
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  result.exit_code = WEXITSTATUS(pclose(pipe));
  return result;
}

std::string WriteClaims(const std::string& name, const std::string& text) {
  const std::string path = (std::filesystem::path(testing::TempDir()) / name).string();
  std::ofstream(path) << text;
  return path;
}

TEST(PaperTablesTest, Table1Succeeds) {
  const CommandResult result = RunPaperTables("--table table1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("=== Table 1: hardware watchpoint support survey ==="),
            std::string::npos);
  EXPECT_NE(result.output.find("trap AFTER (x86-style) : traps=2, violations=1 (prevented=1), "
                               "local read saw 7"),
            std::string::npos)
      << result.output;
}

TEST(PaperTablesTest, UnknownTableExits2) {
  for (const std::string args : {"--table nosuch", "--table", "--tables table1", "table1"}) {
    const CommandResult result = RunPaperTables(args);
    EXPECT_EQ(result.exit_code, 2) << args << ": " << result.output;
    EXPECT_EQ(result.output.rfind("paper_tables: ", 0), 0u) << args << ": " << result.output;
  }
  const std::string unknown = RunPaperTables("--table nosuch").output;
  EXPECT_NE(unknown.find("unknown table 'nosuch' (known: table1, table3, "), std::string::npos)
      << unknown;
}

// Bad values exit 2 before any entry runs; here the selected entry is the
// runner-free Table 1, so no worker thread could start either way.
TEST(PaperTablesTest, BadWorkerCountExits2) {
  for (const std::string value : {"abc", "-1", "1025", "0x10", "4294967295", "", " 4", "1e3"}) {
    const CommandResult result =
        RunPaperTables("--table table1", "2>&1", "KIVATI_BENCH_WORKERS='" + value + "'");
    EXPECT_EQ(result.exit_code, 2) << "'" << value << "': " << result.output;
    EXPECT_EQ(result.output.rfind("paper_tables: KIVATI_BENCH_WORKERS: '" + value + "'", 0), 0u)
        << result.output;
    EXPECT_EQ(result.output.find("Table 1"), std::string::npos) << result.output;
  }
  for (const std::string value : {"0", "1", "1024"}) {
    const CommandResult result =
        RunPaperTables("--table table1", "2>&1", "KIVATI_BENCH_WORKERS=" + value);
    EXPECT_EQ(result.exit_code, 0) << value << ": " << result.output;
  }
}

TEST(PaperTablesTest, CheckFailsWhenABandExcludesTheMeasuredValue) {
  const std::string excluding =
      WriteClaims("excluding_claims.txt", "# local read is 7\ntable1.after.local_read 0 6\n");
  const CommandResult failed =
      RunPaperTables("--table table1 --check " + excluding, "2>&1 >/dev/null");
  EXPECT_EQ(failed.exit_code, 1) << failed.output;
  EXPECT_NE(failed.output.find("claim failed: table1.after.local_read = 7 in [0, 6]"),
            std::string::npos)
      << failed.output;

  const std::string holding = WriteClaims(
      "holding_claims.txt", "table1.after.local_read 7 7\ntable1.before.local_read 7 7\n");
  const CommandResult passed = RunPaperTables("--table table1 --check " + holding);
  EXPECT_EQ(passed.exit_code, 0) << passed.output;
  EXPECT_NE(passed.output.find("2 claim(s), 0 failed"), std::string::npos) << passed.output;

  // A claim no selected entry measures fails; a malformed, missing or empty
  // claims file is a usage error.
  const std::string unmeasured = WriteClaims("unmeasured_claims.txt", "table6.x 0 1\n");
  EXPECT_EQ(RunPaperTables("--table table1 --check " + unmeasured).exit_code, 1);
  const std::string malformed =
      WriteClaims("malformed_claims.txt", "table1.after.local_read 7\n");
  EXPECT_EQ(RunPaperTables("--table table1 --check " + malformed).exit_code, 2);
  EXPECT_EQ(RunPaperTables("--table table1 --check /nonexistent/claims.txt").exit_code, 2);
  const std::string empty = WriteClaims("empty_claims.txt", "# nothing gated\n");
  EXPECT_EQ(RunPaperTables("--table table1 --check " + empty).exit_code, 2);
}

}  // namespace
}  // namespace kivati
