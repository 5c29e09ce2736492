#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "chisimnet/stats/plot.hpp"
#include "support.hpp"

namespace chisimnet::stats {
namespace {

class PlotTest : public ::testing::Test {
 protected:
  testsupport::ScratchDir scratch_{"chisimnet_plot"};
  const std::filesystem::path& dir_ = scratch_.path();

  std::string slurp(const std::filesystem::path& path) const {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }
};

TEST_F(PlotTest, ScatterRendersPointsLinesAndLegend) {
  ScatterPlot plot("Test Title", "x axis", "y axis");
  PlotSeries points;
  points.label = "data";
  points.points = {{1, 2}, {3, 4}, {5, 6}};
  plot.addSeries(points);
  PlotSeries line;
  line.label = "model";
  line.drawLine = true;
  line.drawMarkers = false;
  line.dash = "6,3";
  line.points = {{1, 1}, {5, 5}};
  plot.addSeries(line);

  const auto path = dir_ / "scatter.svg";
  plot.writeSvg(path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("<svg"), std::string::npos);
  EXPECT_NE(content.find("Test Title"), std::string::npos);
  EXPECT_NE(content.find("x axis"), std::string::npos);
  EXPECT_NE(content.find("y axis"), std::string::npos);
  // Three data markers.
  EXPECT_EQ(std::count(content.begin(), content.end(), 'c') >= 3, true);
  EXPECT_NE(content.find("<polyline"), std::string::npos);
  EXPECT_NE(content.find("stroke-dasharray=\"6,3\""), std::string::npos);
  EXPECT_NE(content.find(">data<"), std::string::npos);
  EXPECT_NE(content.find(">model<"), std::string::npos);
}

TEST_F(PlotTest, LogAxesDropNonPositivePoints) {
  ScatterPlot plot("Log", "k", "p");
  plot.setLogX(true);
  plot.setLogY(true);
  PlotSeries series;
  series.points = {{0, 1}, {-2, 5}, {10, 0.1}, {100, 0.01}};
  plot.addSeries(series);
  const auto path = dir_ / "log.svg";
  plot.writeSvg(path);
  const std::string content = slurp(path);
  // Only the two positive points produce circles.
  std::size_t circles = 0;
  std::size_t at = 0;
  while ((at = content.find("<circle", at)) != std::string::npos) {
    ++circles;
    at += 7;
  }
  EXPECT_EQ(circles, 2u);
  // Decade tick labels appear.
  EXPECT_NE(content.find("1e1"), std::string::npos);
  EXPECT_NE(content.find("1e2"), std::string::npos);
}

TEST_F(PlotTest, EmptyPlotRejected) {
  ScatterPlot plot("Empty", "x", "y");
  EXPECT_THROW(plot.writeSvg(dir_ / "nope.svg"), std::invalid_argument);

  ScatterPlot onlyNegative("Neg", "x", "y");
  onlyNegative.setLogX(true);
  PlotSeries series;
  series.points = {{-1, 1}};
  onlyNegative.addSeries(series);
  EXPECT_THROW(onlyNegative.writeSvg(dir_ / "nope.svg"),
               std::invalid_argument);
}

TEST_F(PlotTest, TitleIsXmlEscaped) {
  ScatterPlot plot("a < b & c", "x", "y");
  PlotSeries series;
  series.points = {{1, 1}, {2, 2}};
  plot.addSeries(series);
  const auto path = dir_ / "escape.svg";
  plot.writeSvg(path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("a &lt; b &amp; c"), std::string::npos);
  EXPECT_EQ(content.find("a < b & c"), std::string::npos);
}

TEST_F(PlotTest, HistogramRendersBars) {
  Histogram histogram(0.0, 1.0, 10);
  for (int i = 0; i < 50; ++i) {
    histogram.add(0.95);  // spike in the last bin
  }
  histogram.add(0.05);
  const auto path = dir_ / "hist.svg";
  writeHistogramSvg(histogram, "Hist", "coefficient", path);
  const std::string content = slurp(path);
  std::size_t bars = 0;
  std::size_t at = 0;
  while ((at = content.find("<rect", at)) != std::string::npos) {
    ++bars;
    at += 5;
  }
  // Background + frame + 10 bins.
  EXPECT_EQ(bars, 12u);
  EXPECT_NE(content.find("Hist"), std::string::npos);
  EXPECT_NE(content.find(">50<"), std::string::npos);  // y-axis max label
}

}  // namespace
}  // namespace chisimnet::stats
