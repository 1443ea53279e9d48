#include "analysis/pattern_set.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace cyd::analysis {
namespace {

std::vector<std::uint8_t> presence(const PatternSet& set,
                                   std::string_view data) {
  std::vector<std::uint8_t> hits;
  set.match_presence(data, hits);
  return hits;
}

TEST(PatternSetTest, EmptySetMatchesNothing) {
  PatternSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(presence(set, "anything at all").empty());
  EXPECT_EQ(set.first_match("anything"), PatternSet::npos);
}

TEST(PatternSetTest, EmptyPatternIsRejected) {
  PatternSet set;
  EXPECT_THROW(set.add(""), std::invalid_argument);
}

TEST(PatternSetTest, OverlappingPatternsAllFire) {
  // Suffix/prefix/substring overlaps are exactly where naive automata drop
  // matches: "bc" ends inside "abcd", "abc" is a prefix of it, "c" a
  // single byte inside both.
  PatternSet set;
  set.add("abcd");
  set.add("bc");
  set.add("abc");
  set.add("c");
  set.add("cdx");
  const auto hits = presence(set, "xx abcd yy");
  ASSERT_EQ(hits.size(), 5u);
  EXPECT_EQ(hits[0], 1);  // abcd
  EXPECT_EQ(hits[1], 1);  // bc
  EXPECT_EQ(hits[2], 1);  // abc
  EXPECT_EQ(hits[3], 1);  // c
  EXPECT_EQ(hits[4], 0);  // cdx absent
}

TEST(PatternSetTest, PatternAtBufferBoundaries) {
  PatternSet set;
  set.add("head");
  set.add("tail");
  set.add("exact");
  const auto hits = presence(set, "head...tail");
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
  EXPECT_EQ(hits[2], 0);
  // Pattern equals the whole buffer.
  EXPECT_EQ(presence(set, "exact")[2], 1);
  // Pattern longer than the buffer can never match.
  EXPECT_EQ(presence(set, "exac")[2], 0);
  // Empty buffer matches nothing.
  const auto empty_hits = presence(set, "");
  EXPECT_EQ(empty_hits, (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(PatternSetTest, DuplicatePatternsGetIndependentIndices) {
  PatternSet set;
  const auto a = set.add("mrxcls");
  const auto b = set.add("mrxcls");
  EXPECT_NE(a, b);
  const auto hits = presence(set, "driver mrxcls.sys");
  EXPECT_EQ(hits[a], 1);
  EXPECT_EQ(hits[b], 1);
}

TEST(PatternSetTest, BinaryPatternsIncludingNulAndHighBytes) {
  PatternSet set;
  set.add(std::string("\x00\xff\x00", 3));
  set.add(std::string("\xff\xd8\xff\xe0", 4));
  const std::string data =
      std::string("junk") + std::string("\x00\xff\x00", 3) + "more" +
      std::string("\xff\xd8\xff\xe0", 4);
  const auto hits = presence(set, data);
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
}

TEST(PatternSetTest, FirstMatchReturnsLowestIndex) {
  PatternSet set;
  set.add("zebra");
  set.add("apple");
  set.add("zeb");
  // Both "zebra" (0) and "zeb" (2) occur; lowest index wins.
  EXPECT_EQ(set.first_match("one zebra"), 0u);
  EXPECT_EQ(set.first_match("zeb only"), 2u);
  EXPECT_EQ(set.first_match("nothing here"), PatternSet::npos);
}

TEST(PatternSetTest, AddAfterCompileRebuilds) {
  PatternSet set;
  set.add("alpha");
  set.compile();
  EXPECT_EQ(presence(set, "alpha beta").size(), 1u);
  set.add("beta");
  const auto hits = presence(set, "alpha beta");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
}

TEST(PatternSetTest, AgreesWithNaiveFindOnRandomInputs) {
  // Property check over a tiny alphabet (maximizing overlap collisions):
  // automaton presence == data.find presence for every pattern.
  sim::Rng rng(0xac);
  for (int trial = 0; trial < 50; ++trial) {
    PatternSet set;
    std::vector<std::string> patterns;
    const int pattern_count = static_cast<int>(rng.uniform_int(1, 12));
    for (int p = 0; p < pattern_count; ++p) {
      std::string pattern;
      const int len = static_cast<int>(rng.uniform_int(1, 6));
      for (int k = 0; k < len; ++k) {
        pattern.push_back(static_cast<char>('a' + rng.uniform_int(0, 2)));
      }
      set.add(pattern);
      patterns.push_back(std::move(pattern));
    }
    std::string data;
    const int data_len = static_cast<int>(rng.uniform_int(0, 64));
    for (int k = 0; k < data_len; ++k) {
      data.push_back(static_cast<char>('a' + rng.uniform_int(0, 2)));
    }
    const auto hits = presence(set, data);
    ASSERT_EQ(hits.size(), patterns.size());
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      const bool naive = data.find(patterns[p]) != std::string::npos;
      EXPECT_EQ(hits[p] != 0, naive)
          << "trial " << trial << " pattern '" << patterns[p] << "' in '"
          << data << "'";
    }
  }
}

// Binary-heavy haystacks: long stretches of bytes that no pattern starts
// with keep the automaton at the root, broken by NULs (the commonest byte
// of a binary, and the first byte of a pattern), by bytes from the whole
// alphabet, and by whole patterns, their prefixes and their first bytes.
// Presence must equal naive find.
TEST(PatternSetTest, AgreesWithNaiveFindOnBinaryHeavyInputs) {
  const std::vector<std::string> patterns = {
      std::string("\x00\x01\x02", 3),  // NUL first: a common byte
      std::string("\x01\x02", 2),      // a suffix of the pattern above
      std::string("\xff\xd8\xff", 3),  // 0xff first
      std::string("\x9c", 1),           // one rare byte
      "\x7f" "ELF",
      "LF",  // a suffix ending a longer pattern
  };
  PatternSet set;
  for (const auto& p : patterns) set.add(p);
  std::string idle;  // bytes that start no pattern
  for (int c = 0; c < 256; ++c) {
    bool starts = false;
    for (const auto& p : patterns) {
      starts |= static_cast<unsigned char>(p[0]) == c;
    }
    if (!starts) idle.push_back(static_cast<char>(c));
  }
  const auto draw = [](sim::Rng& rng, const std::string& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  sim::Rng rng(0xb1);
  for (int trial = 0; trial < 400; ++trial) {
    std::string data;
    const auto pieces = rng.uniform_int(0, 6);
    for (std::int64_t k = 0; k < pieces; ++k) {
      const auto stretch = rng.uniform_int(0, 96);
      for (std::int64_t b = 0; b < stretch; ++b) {
        const double roll = rng.next_double();
        if (roll < 0.1) {
          data.push_back('\0');
        } else if (roll < 0.15) {
          data.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        } else {
          data.push_back(draw(rng, idle));
        }
      }
      const auto& p = patterns[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(patterns.size()) - 1))];
      // A whole pattern, a proper prefix, or its first byte alone.
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(p.size())));
      data += p.substr(0, cut);
    }
    const auto hits = presence(set, data);
    ASSERT_EQ(hits.size(), patterns.size());
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      EXPECT_EQ(hits[p] != 0, data.find(patterns[p]) != std::string::npos)
          << "trial " << trial << " pattern " << p;
    }
  }
}

TEST(PatternSetTest, MatchesAtFirstAndLastByteOfBinaryBuffers) {
  PatternSet set;
  set.add(std::string("\x00\x01", 2));
  set.add(std::string("\xff", 1));
  set.add("Q");
  set.add("QZ");
  const std::string binary(50, '\x80');
  const std::string nul(1, '\0');
  // Each pattern at offset 0, then ending on the last byte.
  EXPECT_EQ(presence(set, nul + "\x01" + binary),
            (std::vector<std::uint8_t>{1, 0, 0, 0}));
  EXPECT_EQ(presence(set, binary + nul + "\x01"),
            (std::vector<std::uint8_t>{1, 0, 0, 0}));
  EXPECT_EQ(presence(set, "\xff" + binary),
            (std::vector<std::uint8_t>{0, 1, 0, 0}));
  EXPECT_EQ(presence(set, binary + "\xff"),
            (std::vector<std::uint8_t>{0, 1, 0, 0}));
  EXPECT_EQ(presence(set, "QZ" + binary),
            (std::vector<std::uint8_t>{0, 0, 1, 1}));
  EXPECT_EQ(presence(set, binary + "Q"),
            (std::vector<std::uint8_t>{0, 0, 1, 0}));
  // The one-byte buffer that leaves the root on its only byte.
  EXPECT_EQ(presence(set, "Q"), (std::vector<std::uint8_t>{0, 0, 1, 0}));
  EXPECT_EQ(presence(set, binary), (std::vector<std::uint8_t>{0, 0, 0, 0}));
}

TEST(PatternSetTest, StopsOnlyOnceEveryPatternIsSeen) {
  // Duplicates and a suffix pair fire on the same byte; the early exit
  // counts each index once, so the scan runs on to the last pattern,
  // which sits at the very end of a long binary tail.
  PatternSet set;
  set.add("abc");
  set.add("abc");
  set.add("bc");
  set.add(std::string("\x00\xfe", 2));
  const std::string tail(4096, '\x90');
  EXPECT_EQ(presence(set, "abc" + tail + std::string("\x00\xfe", 2)),
            (std::vector<std::uint8_t>{1, 1, 1, 1}));
  EXPECT_EQ(presence(set, "abc" + tail),
            (std::vector<std::uint8_t>{1, 1, 1, 0}));
  // Everything seen up front: whatever follows cannot change the answer.
  EXPECT_EQ(presence(set, std::string("\x00\xfe", 2) + "abc" + tail),
            (std::vector<std::uint8_t>{1, 1, 1, 1}));
}

}  // namespace
}  // namespace cyd::analysis
