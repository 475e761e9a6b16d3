#include "io/graph_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "gen/dataset_gen.hpp"
#include "tests/test_util.hpp"

namespace psi::io {
namespace {

TEST(LabelDictTest, InternAssignsDenseIds) {
  LabelDict d;
  EXPECT_EQ(d.Intern("A"), 0u);
  EXPECT_EQ(d.Intern("B"), 1u);
  EXPECT_EQ(d.Intern("A"), 0u);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.name(1), "B");
  EXPECT_EQ(d.Lookup("B"), 1u);
  EXPECT_EQ(d.Lookup("Z"), LabelDict::kInvalidLabel);
}

TEST(GfuTest, ParsesSingleGraph) {
  std::istringstream in(
      "#toy\n"
      "3\n"
      "A\n"
      "B\n"
      "A\n"
      "2\n"
      "0 1\n"
      "1 2\n");
  LabelDict dict;
  auto ds = ReadGfu(in, &dict);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->size(), 1u);
  const Graph& g = ds->graph(0);
  EXPECT_EQ(g.name(), "toy");
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.label(0), dict.Lookup("A"));
  EXPECT_EQ(g.label(1), dict.Lookup("B"));
}

TEST(GfuTest, ParsesMultipleGraphsAndWindowsLineEndings) {
  std::istringstream in(
      "#g0\r\n2\r\nX\r\nY\r\n1\r\n0 1\r\n"
      "#g1\r\n1\r\nX\r\n0\r\n");
  LabelDict dict;
  auto ds = ReadGfu(in, &dict);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->graph(1).num_vertices(), 1u);
}

TEST(GfuTest, RejectsGarbage) {
  LabelDict dict;
  {
    std::istringstream in("not a gfu file\n");
    EXPECT_FALSE(ReadGfu(in, &dict).ok());
  }
  {
    std::istringstream in("#g\nxyz\n");
    EXPECT_FALSE(ReadGfu(in, &dict).ok());
  }
  {
    std::istringstream in("#g\n2\nA\nB\n1\n0\n");  // malformed edge
    EXPECT_FALSE(ReadGfu(in, &dict).ok());
  }
  {
    std::istringstream in("#g\n2\nA\n");  // truncated
    EXPECT_FALSE(ReadGfu(in, &dict).ok());
  }
}

TEST(GfuTest, RejectsVertexCountBeyondVertexIds) {
  LabelDict dict;
  // 2^32 + 1 must not truncate to 1 and parse as a one-vertex graph.
  std::istringstream in("#g\n4294967297\nA\n0\n");
  auto ds = ReadGfu(in, &dict);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), Status::Code::kCorruption);
}

TEST(GfuTest, HugeVertexCountThenEofIsCorruption) {
  LabelDict dict;
  // In range for 32-bit ids but backed by no vertex lines: the reader must
  // fail at the first missing label without reserving for the header.
  std::istringstream in("#g\n4294967294\n");
  auto ds = ReadGfu(in, &dict);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), Status::Code::kCorruption);
}

// Structure must survive a round trip exactly; label *ids* may permute
// (the reader interns labels in first-seen order), so labels are compared
// through their external names.
void ExpectSameGraphModuloDict(const Graph& a, const LabelDict& da,
                               const Graph& b, const LabelDict& db) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(da.name(a.label(v)), db.name(b.label(v))) << "vertex " << v;
    auto na = a.neighbors(v);
    auto nb = b.neighbors(v);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST(GfuTest, RoundTripPreservesGraphs) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 4;
  o.avg_nodes = 30;
  o.num_labels = 5;
  o.seed = 12;
  auto ds = gen::GraphGenLike(o);
  LabelDict dict;
  for (uint32_t l = 0; l < 5; ++l) dict.Intern("L" + std::to_string(l));

  std::ostringstream out;
  ASSERT_TRUE(WriteGfu(ds, dict, out).ok());
  std::istringstream in(out.str());
  LabelDict dict2;
  auto back = ReadGfu(in, &dict2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    ExpectSameGraphModuloDict(ds.graph(i), dict, back->graph(i), dict2);
  }
}

TEST(TveTest, ParsesTransactionalBlocks) {
  std::istringstream in(
      "t # 0\n"
      "v 0 A\n"
      "v 1 B\n"
      "v 2 A\n"
      "e 0 1\n"
      "e 1 2\n"
      "t # 1\n"
      "v 0 C\n");
  LabelDict dict;
  auto ds = ReadTve(in, &dict);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->graph(0).num_edges(), 2u);
  EXPECT_EQ(ds->graph(1).num_vertices(), 1u);
}

TEST(TveTest, RejectsMalformedInput) {
  LabelDict dict;
  {
    std::istringstream in("v 0 A\n");  // vertex before 't'
    EXPECT_FALSE(ReadTve(in, &dict).ok());
  }
  {
    std::istringstream in("t # 0\nv 1 A\n");  // non-dense ids
    EXPECT_FALSE(ReadTve(in, &dict).ok());
  }
  {
    std::istringstream in("t # 0\nq 0\n");  // unknown tag
    EXPECT_FALSE(ReadTve(in, &dict).ok());
  }
}

TEST(TveTest, RoundTrip) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 3;
  o.avg_nodes = 25;
  o.num_labels = 4;
  o.seed = 13;
  auto ds = gen::GraphGenLike(o);
  LabelDict dict;
  for (uint32_t l = 0; l < 4; ++l) dict.Intern("lbl" + std::to_string(l));
  std::ostringstream out;
  ASSERT_TRUE(WriteTve(ds, dict, out).ok());
  std::istringstream in(out.str());
  LabelDict dict2;
  auto back = ReadTve(in, &dict2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    ExpectSameGraphModuloDict(ds.graph(i), dict, back->graph(i), dict2);
  }
}

TEST(FileIoTest, MissingFileGivesIOError) {
  LabelDict dict;
  EXPECT_EQ(ReadGfuFile("/nonexistent/path.gfu", &dict).status().code(),
            Status::Code::kIOError);
  EXPECT_EQ(ReadTveFile("/nonexistent/path.tve", &dict).status().code(),
            Status::Code::kIOError);
}

}  // namespace
}  // namespace psi::io
