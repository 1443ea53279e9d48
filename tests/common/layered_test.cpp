#include "common/layered.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cyd::common {
namespace {

using Layer = Layered<std::string, int>;

/// A store owning a layer, as Volume and Registry own theirs.
struct Store {
  Layer layer;
};

/// A base store holding a=1, b=2, c=3, d=4.
std::shared_ptr<const Store> abcd() {
  auto base = std::make_shared<Store>();
  int value = 0;
  for (const char* key : {"a", "b", "c", "d"}) base->layer.put(key, ++value);
  return base;
}

/// A delta over abcd(); it keeps the base store alive on its own.
Layer layered_over_abcd() {
  Layer delta;
  delta.set_base(abcd(), &Store::layer);
  return delta;
}

std::vector<std::pair<std::string, int>> listed(const Layer& layer) {
  std::vector<std::pair<std::string, int>> out;
  layer.for_each([&out](const std::string& key, int value) {
    out.emplace_back(key, value);
  });
  return out;
}

TEST(LayeredTest, EraseLeavesWhiteoutOnlyOverBase) {
  Layer layer = layered_over_abcd();
  EXPECT_EQ(layer.delta_size(), 0u);
  EXPECT_TRUE(layer.erase("a"));
  EXPECT_EQ(layer.find("a"), nullptr);
  EXPECT_EQ(layer.delta_size(), 1u);  // the whiteout
  EXPECT_FALSE(layer.erase("a"));     // no longer visible
  EXPECT_FALSE(layer.erase("zz"));
  EXPECT_EQ(layer.delta_size(), 1u);

  layer.put("e", 5);
  EXPECT_TRUE(layer.erase("e"));  // delta-only: the slot goes
  EXPECT_EQ(layer.delta_size(), 1u);

  layer.put("a", 10);  // replaces the whiteout
  ASSERT_NE(layer.find("a"), nullptr);
  EXPECT_EQ(*layer.find("a"), 10);
  EXPECT_TRUE(layer.erase("a"));  // a base key again: back to a whiteout
  EXPECT_FALSE(layer.contains("a"));
  EXPECT_EQ(layer.delta_size(), 1u);
}

TEST(LayeredTest, MaterializeCopiesUpWithoutTouchingBase) {
  const auto base = abcd();
  Layer layer, sibling;
  layer.set_base(base, &Store::layer);
  sibling.set_base(base, &Store::layer);
  *layer.materialize("b") = 20;
  EXPECT_EQ(*layer.find("b"), 20);
  EXPECT_EQ(layer.delta_size(), 1u);
  EXPECT_EQ(layer.materialize("zz"), nullptr);
  layer.erase("c");
  EXPECT_EQ(layer.materialize("c"), nullptr);
  EXPECT_EQ(*base->layer.find("b"), 2);
  EXPECT_EQ(*sibling.find("b"), 2);
  EXPECT_EQ(*sibling.find("c"), 3);
}

TEST(LayeredTest, WalksMergeInKeyOrderAndSkipWhiteouts) {
  Layer layer = layered_over_abcd();
  layer.put("b", 20);
  layer.erase("c");
  layer.put("bb", 7);
  layer.put("e", 5);
  using List = std::vector<std::pair<std::string, int>>;
  EXPECT_EQ(listed(layer), (List{{"a", 1}, {"b", 20}, {"bb", 7}, {"d", 4},
                                 {"e", 5}}));
  List range;
  layer.for_each_in("b", std::string("d"), [&](const std::string& k, int v) {
    range.emplace_back(k, v);
  });
  EXPECT_EQ(range, (List{{"b", 20}, {"bb", 7}}));
  List prefixed;
  layer.for_each_with_prefix("b", [&](const std::string& k, int v) {
    prefixed.emplace_back(k, v);
  });
  EXPECT_EQ(prefixed, range);
}

TEST(LayeredTest, PrefixEndIsTheFirstStringPastEveryExtension) {
  EXPECT_EQ(prefix_end("ab"), "ac");
  EXPECT_EQ(prefix_end("a\xff\xff"), "b");
  EXPECT_EQ(prefix_end(""), std::nullopt);
  EXPECT_EQ(prefix_end("\xff"), std::nullopt);
}

}  // namespace
}  // namespace cyd::common
