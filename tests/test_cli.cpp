// The drill's flag table: every subcommand rejects malformed, out-of-range
// and unknown input with a message naming the flag, before anything runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common_cli.h"

namespace cli = stencil::cli;
using stencil::Dim3;
using stencil::MethodFlags;

namespace {

const std::vector<std::string> kEverySub = {"explore", "plan",      "verify", "check", "fault",
                                            "tenant",  "telemetry", "trace",  "watch", "explain"};

// Subcommands that take the shape flags --nodes, --rpn and --domain.
const std::vector<std::string> kShaped = {"explore", "plan",      "verify", "check",
                                          "fault",   "telemetry", "trace",  "watch"};

bool parses(const std::vector<std::string>& args, cli::Options* opt = nullptr) {
  cli::Options o;
  std::string err;
  const bool ok = cli::parse(args, &o, &err);
  if (opt != nullptr) *opt = o;
  return ok;
}

// The parse error for `args`, which must not parse.
std::string error_of(const std::vector<std::string>& args) {
  cli::Options opt;
  std::string err;
  EXPECT_FALSE(cli::parse(args, &opt, &err)) << "accepted: " << testing::PrintToString(args);
  EXPECT_FALSE(err.empty());
  return err;
}

void expect_rejected(const std::string& sub, const std::string& flag,
                     const std::vector<std::string>& bad) {
  ASSERT_TRUE(parses({sub})) << sub;
  for (const std::string& v : bad) {
    const std::string err = error_of({sub, flag, v});
    EXPECT_NE(err.find(flag), std::string::npos) << sub << " " << flag << " " << v << ": " << err;
  }
}

}  // namespace

TEST(CliParse, DefaultsOfEverySubcommandParse) {
  for (const std::string& sub : kEverySub) {
    cli::Options opt;
    ASSERT_TRUE(parses({sub}, &opt)) << sub;
    EXPECT_EQ(opt.tool(), "drill " + sub);
  }
}

TEST(CliParse, UnknownFlagAndMissingValueAreRejected) {
  for (const std::string& sub : kEverySub) {
    const std::string err = error_of({sub, "--bogus"});
    EXPECT_NE(err.find("unknown flag '--bogus'"), std::string::npos) << err;
  }
  for (const std::string& sub : kShaped) {
    EXPECT_NE(error_of({sub, "--nodes"}).find("--nodes needs a value"), std::string::npos);
  }
  EXPECT_NE(error_of({"tenant", "--seed"}).find("--seed needs a value"), std::string::npos);
  EXPECT_NE(error_of({"explain", "--json"}).find("--json needs a value"), std::string::npos);
  EXPECT_NE(error_of({"bogus"}).find("unknown subcommand"), std::string::npos);
  EXPECT_NE(error_of({}).find("missing subcommand"), std::string::npos);
}

TEST(CliParse, ShapeCountsMustBeWholePositiveIntegers) {
  const std::vector<std::string> bad_counts = {"abc", "0", "-1", "2x", "", "1.5", "99999999999"};
  for (const std::string& sub : kShaped) {
    expect_rejected(sub, "--nodes", bad_counts);
    expect_rejected(sub, "--rpn", bad_counts);
    expect_rejected(sub, "--domain", {"0", "abc", "4,4", "4,4,0", "4,,4", "4,4,4,4", "-8"});
    if (sub != "watch") expect_rejected(sub, "--radius", bad_counts);
    if (sub != "telemetry") expect_rejected(sub, "--iters", bad_counts);
  }
  for (const char* sub : {"explore", "plan", "verify", "telemetry", "trace"}) {
    expect_rejected(sub, "--quantities", bad_counts);
  }
  expect_rejected("tenant", "--iters", bad_counts);
  expect_rejected("fault", "--cadence", bad_counts);
}

TEST(CliParse, OtherValuesAreValidated) {
  expect_rejected("check", "--fault-at", {"-1", "soon", "inf"});
  expect_rejected("trace", "--factor", {"0", "-0.5", "nan"});
  expect_rejected("trace", "--straggler", {"-2", "x"});
  expect_rejected("fault", "--kill-gpu", {"-2", "x"});
  expect_rejected("fault", "--seed", {"-1", "0x10"});
  expect_rejected("fault", "--drill", {"everything"});
  expect_rejected("explore", "--arch", {"cray"});
  expect_rejected("explore", "--methods", {"fast", "all,", "staged,bogus"});
  expect_rejected("explore", "--placement", {"random"});
  expect_rejected("tenant", "--policy", {"random"});
  expect_rejected("trace", "--expect", {"congestion"});
  expect_rejected("watch", "--expect", {"straggler"});
  expect_rejected("explain", "--expect", {"straggler"});
}

TEST(CliParse, RpnMustDivideGpusPerNode) {
  // trace runs 2-GPU nodes; the configuration tools default to Summit's 6.
  EXPECT_NE(error_of({"trace", "--rpn", "3"}).find("--rpn 3 must divide the 2 GPUs"),
            std::string::npos);
  EXPECT_NE(error_of({"explore", "--rpn", "4"}).find("--rpn"), std::string::npos);
  EXPECT_NE(error_of({"telemetry", "--arch", "dgx", "--rpn", "3"}).find("--rpn"),
            std::string::npos);
  EXPECT_TRUE(parses({"explore", "--arch", "dgx", "--rpn", "4"}));
  // --recover runs one GPU per rank, so any rank count divides.
  EXPECT_TRUE(parses({"fault", "--recover", "--kill-gpu", "1", "--rpn", "3"}));
}

TEST(CliParse, FaultTargetsMustNameAGpuOrNodeOfTheCluster) {
  // trace: 2 nodes x 2 GPUs.
  EXPECT_TRUE(parses({"trace", "--straggler", "3"}));
  EXPECT_NE(error_of({"trace", "--straggler", "99"}).find("--straggler 99 is out of range"),
            std::string::npos);
  EXPECT_NE(error_of({"trace", "--nodes", "1", "--straggler", "2"}).find("--straggler"),
            std::string::npos);
  // fault --recover: nodes x rpn GPUs, one per rank.
  EXPECT_TRUE(parses({"fault", "--kill-gpu", "3", "--nodes", "2", "--rpn", "2"}));
  EXPECT_NE(error_of({"fault", "--kill-gpu", "4", "--nodes", "2", "--rpn", "2"})
                .find("--kill-gpu 4 is out of range"),
            std::string::npos);
  EXPECT_NE(error_of({"fault", "--kill-node", "2", "--nodes", "2"}).find("--kill-node"),
            std::string::npos);
  EXPECT_NE(error_of({"fault", "--recover"}).find("--recover needs"), std::string::npos);
}

TEST(CliParse, SubcommandsTakeOnlyTheirFlags) {
  EXPECT_NE(error_of({"check", "--seed", "1"}).find("unknown flag '--seed'"), std::string::npos);
  EXPECT_NE(error_of({"watch", "--radius", "2"}).find("unknown flag"), std::string::npos);
  EXPECT_NE(error_of({"tenant", "--nodes", "2"}).find("unknown flag"), std::string::npos);
  // Merged spellings: --preset is --arch, --prom is --metrics.
  EXPECT_NE(error_of({"telemetry", "--preset", "dgx"}).find("unknown flag"), std::string::npos);
  EXPECT_NE(error_of({"telemetry", "--prom", "m.prom"}).find("unknown flag"), std::string::npos);
  cli::Options opt;
  ASSERT_TRUE(parses({"telemetry", "--arch", "dgx", "--metrics", "m.prom"}, &opt));
  EXPECT_EQ(opt.arch.gpus_per_node(), 4);
  EXPECT_EQ(opt.metrics, "m.prom");
}

TEST(CliParse, MethodsAreOneCommaSeparatedVocabulary) {
  const std::pair<const char*, MethodFlags> cases[] = {
      {"all", MethodFlags::kAll},
      {"allca", MethodFlags::kAllCudaAware},
      {"staged", MethodFlags::kStaged},
      {"all,ca", MethodFlags::kAll | MethodFlags::kCudaAwareMpi},
      {"staged,peer,kernel", MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel},
  };
  for (const auto& [name, flags] : cases) {
    cli::Options opt;
    ASSERT_TRUE(parses({"check", "--methods", name}, &opt)) << name;
    EXPECT_EQ(opt.methods, flags) << name;
    EXPECT_EQ(opt.methods_name, name);
  }
  // Every transfer needs a remote method, and CUDA-aware MPI a platform with it.
  EXPECT_NE(error_of({"explore", "--methods", "peer,kernel"}).find("--methods"),
            std::string::npos);
  EXPECT_NE(error_of({"explore", "--arch", "pcie", "--rpn", "2", "--methods", "allca"})
                .find("--methods ca"),
            std::string::npos);
}

TEST(CliParse, DefaultsAreDecidedPerSubcommand) {
  cli::Options opt;
  ASSERT_TRUE(parses({"check"}, &opt));
  EXPECT_EQ(opt.rpn, 2);
  EXPECT_EQ(opt.domain, (Dim3{48, 48, 48}));
  EXPECT_EQ(opt.drill, "none");
  ASSERT_TRUE(parses({"fault"}, &opt));
  EXPECT_EQ(opt.drill, "all");
  EXPECT_EQ(opt.domain, (Dim3{64, 64, 64}));
  ASSERT_TRUE(parses({"trace"}, &opt));
  EXPECT_EQ(opt.arch.gpus_per_node(), 2);
  EXPECT_DOUBLE_EQ(opt.factor, 0.001);
  ASSERT_TRUE(parses({"watch"}, &opt));
  EXPECT_EQ(opt.domain, (Dim3{96, 96, 96}));
  EXPECT_DOUBLE_EQ(opt.factor, 0.1);
  ASSERT_TRUE(parses({"explore", "--domain", "1440,1452,700"}, &opt));
  EXPECT_EQ(opt.domain, (Dim3{1440, 1452, 700}));
  EXPECT_EQ(opt.rpn, 6);
}

TEST(CliParse, OptionalValuesStopAtTheNextFlag) {
  cli::Options opt;
  ASSERT_TRUE(parses({"explain", "--expect", "--json", "e.json", "--report"}, &opt));
  EXPECT_EQ(opt.expect, "clean");
  EXPECT_EQ(opt.json, "e.json");
  EXPECT_TRUE(opt.report);
  EXPECT_EQ(opt.report_path, "");
  ASSERT_TRUE(parses({"explain", "--report", "log.txt", "--expect", "clean"}, &opt));
  EXPECT_EQ(opt.report_path, "log.txt");
  ASSERT_TRUE(parses({"trace", "--expect", "straggler", "--straggler", "3"}, &opt));
  EXPECT_EQ(opt.expect, "straggler");
  EXPECT_EQ(opt.straggler, 3);
}

TEST(CliParse, HelpStopsParsing) {
  for (const std::string& sub : kEverySub) {
    cli::Options opt;
    ASSERT_TRUE(parses({sub, "--help", "--bogus"}, &opt)) << sub;
    EXPECT_TRUE(opt.help);
  }
}
