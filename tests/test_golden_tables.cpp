/**
 * @file
 * Golden-table regression tests: run the real table bench binaries
 * and compare their stdout byte-for-byte against committed snapshots
 * under tests/golden/.
 *
 * Each golden file's first line records the exact bench arguments
 * ("# args: ..."); the rest is the expected stdout. The test replays
 * the binary with those arguments, so test and snapshot can never
 * disagree about the profile. The simulator is seed-deterministic and
 * the parallel sweep engine is bitwise-reproducible for every job
 * count, which is what makes byte-exact snapshots tenable; the
 * WORMNET_JOBS environment variable is explicitly allowed to vary.
 *
 * Regenerate with scripts/update_golden.sh after an intentional
 * change to simulation behaviour, and eyeball the diff — a surprise
 * here usually means a reproducibility regression, not a stale file.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace
{

/** Read a whole file; empty optional-style flag via ok. */
std::string
slurpFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    ok = in.good();
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Run a command and capture its stdout. */
std::string
capture(const std::string &command, int &exit_code)
{
    std::string out;
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
        exit_code = -1;
        return out;
    }
    char buf[4096];
    std::size_t got;
    while ((got = fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, got);
    exit_code = pclose(pipe);
    return out;
}

/**
 * Replay @p binary with the golden file's recorded args (plus
 * @p extra_args, e.g. an explicit --jobs override — the output must
 * be identical for every job count) and byte-compare stdout.
 */
void
checkGoldenTable(const std::string &binary, const std::string &golden,
                 const std::string &extra_args = "")
{
    const std::string path =
        std::string(WORMNET_GOLDEN_DIR) + "/" + golden;
    bool ok = false;
    const std::string content = slurpFile(path, ok);
    ASSERT_TRUE(ok) << "missing golden file " << path
                    << " (generate with scripts/update_golden.sh)";

    const std::string argsTag = "# args:";
    ASSERT_EQ(content.compare(0, argsTag.size(), argsTag), 0)
        << path << " must start with an '" << argsTag << "' line";
    const auto eol = content.find('\n');
    ASSERT_NE(eol, std::string::npos);
    const std::string args =
        content.substr(argsTag.size(), eol - argsTag.size());
    const std::string expected = content.substr(eol + 1);

    const std::string command = std::string(WORMNET_BENCH_DIR) + "/" +
                                binary + args +
                                (extra_args.empty() ? ""
                                                    : " " + extra_args) +
                                " 2>/dev/null";
    int exit_code = -1;
    const std::string actual = capture(command, exit_code);
    ASSERT_EQ(exit_code, 0) << "command failed: " << command;
    EXPECT_EQ(actual, expected)
        << "stdout of '" << command
        << "' diverged from the committed snapshot " << path
        << "; if the change is intentional, regenerate with "
           "scripts/update_golden.sh and review the diff";
}

TEST(GoldenTables, Table1PdmUniform)
{
    checkGoldenTable("table1_pdm_uniform", "table1_quick.txt");
}

TEST(GoldenTables, Table2NdmUniform)
{
    checkGoldenTable("table2_ndm_uniform", "table2_quick.txt");
}

// perfbench/run.py replays this golden with exactly these two flags;
// --sim-jobs 1 must stay accepted (and output-neutral) until the
// benchmark stops passing it.
TEST(GoldenTables, Table2NdmUniformPerfbenchArgs)
{
    checkGoldenTable("table2_ndm_uniform", "table2_quick.txt",
                     "--jobs 1 --sim-jobs 1");
}

TEST(GoldenTables, Table7NdmHotspot)
{
    checkGoldenTable("table7_ndm_hotspot", "table7_quick.txt");
}

// The detector-ablation JSON must be byte-identical at every job
// count: results land in pre-sized slots and are emitted in sweep
// order regardless of scheduling.
TEST(GoldenTables, AblationDetectorsJobs1)
{
    checkGoldenTable("ablation_detectors",
                     "ablation_detectors_quick.json", "--jobs 1");
}

TEST(GoldenTables, AblationDetectorsJobs2)
{
    checkGoldenTable("ablation_detectors",
                     "ablation_detectors_quick.json", "--jobs 2");
}

TEST(GoldenTables, AblationDetectorsJobs8)
{
    checkGoldenTable("ablation_detectors",
                     "ablation_detectors_quick.json", "--jobs 8");
}

} // namespace
