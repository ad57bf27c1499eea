#include "support/flags.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gtrix {
namespace {

Flags make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()), args.data());
}

TEST(Flags, EqualsForm) {
  const Flags f = make({"--columns=32", "--rate=1.5"});
  EXPECT_EQ(f.get_int("columns", 0), 32);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 1.5);
}

TEST(Flags, SpaceSeparatedForm) {
  const Flags f = make({"--columns", "32"});
  EXPECT_EQ(f.get_int("columns", 0), 32);
}

TEST(Flags, BareBooleanIsTrue) {
  const Flags f = make({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, NoPrefixDisables) {
  const Flags f = make({"--no-verbose"});
  EXPECT_FALSE(f.get_bool("verbose", true));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(make({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(make({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=off"}).get_bool("x", true));
}

TEST(Flags, InvalidBooleanThrows) {
  const Flags f = make({"--x=maybe"});
  EXPECT_THROW((void)f.get_bool("x", false), std::invalid_argument);
}

TEST(Flags, ParseErrorsAreFlagErrors) {
  // The CLIs map FlagError to the usage-error exit status 2.
  EXPECT_THROW((void)make({"--threads=abc"}).get_int("threads", 0), FlagError);
  EXPECT_THROW((void)make({"--seed=x"}).get_u64("seed", 0), FlagError);
  EXPECT_THROW((void)make({"--rate=fast"}).get_double("rate", 0.0), FlagError);
  EXPECT_THROW((void)make({"--x=maybe"}).get_bool("x", false), FlagError);
  EXPECT_THROW((void)make({"--k=1", "--k=2"}), FlagError);
  EXPECT_THROW((void)make({"--=x"}), FlagError);
}

TEST(Flags, DefaultsWhenAbsent) {
  const Flags f = make({});
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_EQ(f.get_string("missing", "abc"), "abc");
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
  EXPECT_TRUE(f.get_bool("missing", true));
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, PositionalArguments) {
  const Flags f = make({"input.txt", "--k=1", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(Flags, ProgramName) {
  const Flags f = make({});
  EXPECT_EQ(f.program(), "prog");
}

TEST(Flags, NumericValuesMustConsumeWholeToken) {
  EXPECT_THROW((void)make({"--threads=4x"}).get_int("threads", 0), std::invalid_argument);
  EXPECT_THROW((void)make({"--seed=1O0"}).get_u64("seed", 0), std::invalid_argument);
  EXPECT_THROW((void)make({"--rate=1.5z"}).get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW((void)make({"--k="}).get_int("k", 0), std::invalid_argument);
  try {
    (void)make({"--threads=4x"}).get_int("threads", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos);
  }
}

TEST(Flags, U64RoundTrip) {
  const Flags f = make({"--seed=18446744073709551615"});
  EXPECT_EQ(f.get_u64("seed", 0), 18446744073709551615ULL);
}

TEST(Flags, NegativeNumberAsValue) {
  const Flags f = make({"--offset=-42"});
  EXPECT_EQ(f.get_int("offset", 0), -42);
}

TEST(Flags, DuplicateFlagThrows) {
  EXPECT_THROW(make({"--k=1", "--k=2"}), std::invalid_argument);
  EXPECT_THROW(make({"--verbose", "--verbose"}), std::invalid_argument);
  // --no-foo and --foo target the same flag.
  EXPECT_THROW(make({"--verbose", "--no-verbose"}), std::invalid_argument);
}

TEST(Flags, DuplicateMessageNamesFlag) {
  try {
    make({"--seed=1", "--seed=2"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos);
  }
}

TEST(Flags, EndOfFlagsSeparator) {
  const Flags f = make({"--k=1", "--", "--not-a-flag", "plain", "--k=2"});
  EXPECT_EQ(f.get_int("k", 0), 1);
  ASSERT_EQ(f.positional().size(), 3u);
  EXPECT_EQ(f.positional()[0], "--not-a-flag");
  EXPECT_EQ(f.positional()[1], "plain");
  EXPECT_EQ(f.positional()[2], "--k=2");
}

TEST(Flags, DeclaredBooleanFlagDoesNotConsumeValue) {
  std::vector<const char*> args = {"prog", "--dry-run", "in.json", "--threads", "3"};
  const Flags f(static_cast<int>(args.size()), args.data(), {"dry-run"});
  EXPECT_TRUE(f.get_bool("dry-run", false));
  EXPECT_EQ(f.get_int("threads", 0), 3);  // undeclared flags still bind values
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "in.json");
}

TEST(Flags, SeparatorStopsValueConsumption) {
  // "--name --" must not consume "--" as the value.
  const Flags f = make({"--verbose", "--", "file.json"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "file.json");
}

TEST(Flags, NamesListsAllPassedFlags) {
  const Flags f = make({"--b=1", "--a", "--no-c"});
  const std::vector<std::string> names = f.names();
  ASSERT_EQ(names.size(), 3u);  // sorted map order
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "c");
}

TEST(Usage, FlagNamesStripDashesAndValues) {
  Usage usage("prog", "x");
  usage.flag("--threads=N", "a").flag("--dry-run", "b");
  const std::vector<std::string> names = usage.flag_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "threads");
  EXPECT_EQ(names[1], "dry-run");
}

TEST(Usage, RendersAlignedSections) {
  Usage usage("prog", "Does things.");
  usage.positional("FILE", "input file");
  usage.flag("--threads=N", "worker threads");
  usage.flag("--out=DIR", "output directory");
  const std::string text = usage.str();
  EXPECT_NE(text.find("usage: prog [flags] [FILE...]"), std::string::npos);
  EXPECT_NE(text.find("Does things."), std::string::npos);
  EXPECT_NE(text.find("--threads=N"), std::string::npos);
  EXPECT_NE(text.find("worker threads"), std::string::npos);
  EXPECT_NE(text.find("--out=DIR"), std::string::npos);
  // Help columns align: both helps start at the same offset.
  const auto col = [&](const char* needle) {
    const auto line_start = text.rfind('\n', text.find(needle));
    return text.find(needle) - line_start;
  };
  EXPECT_EQ(col("worker threads"), col("output directory"));
}

}  // namespace
}  // namespace gtrix
