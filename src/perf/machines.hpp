#pragma once
/// \file machines.hpp
/// \brief Machine descriptions of the three systems in the paper (§4.1).

#include <string>

namespace asura::perf {

enum class Network { TofuD6dTorus, InfiniBandFatTree, NVLinkIsland };

struct MachineSpec {
  std::string name;
  int max_nodes = 0;
  int cores_per_node = 0;
  int mpi_ranks_per_node = 1;
  double peak_sp_node_tf = 0.0;  ///< single-precision TFLOPS per node
  double peak_dp_node_tf = 0.0;  ///< double-precision TFLOPS per node
  Network network = Network::InfiniBandFatTree;

  [[nodiscard]] double peakSystemPflops(int nodes, bool single_precision = false) const {
    return (single_precision ? peak_sp_node_tf : peak_dp_node_tf) * nodes / 1000.0;
  }
};

/// Fugaku: 158,976 nodes, Fujitsu A64FX (48 cores, 2.0 GHz), 32 GB/node,
/// 6.144 TF SP / 3.072 TF DP per node, TofuD 6-D mesh/torus. One MPI
/// process per node, 48 OpenMP threads (§4.1.1).
inline MachineSpec fugaku() {
  return {"Fugaku (A64FX)", 158976, 48, 1, 6.144, 3.072, Network::TofuD6dTorus};
}

/// Flatiron Rusty genoa partition: 432 nodes x 2 AMD EPYC 9474F (48 cores,
/// 4.1 GHz), 1.5 TB/node, 2 x 6.298 TF SP, InfiniBand. 48 MPI ranks/node,
/// 2 threads each (§4.1.2).
inline MachineSpec rusty() {
  return {"Rusty (genoa)", 432, 96, 48, 2 * 6.298, 2 * 3.149,
          Network::InfiniBandFatTree};
}

/// Miyabi-G: 1,120 nodes with one GH200 (72-core Grace + H100, 66.9 TF).
/// Whole-system DP peak 78.8 PF => ~70.4 TF/node; gravity runs on the GPU
/// (§4.1.3).
inline MachineSpec miyabi() {
  return {"Miyabi (GH200)", 1120, 72, 1, 133.8, 70.4, Network::NVLinkIsland};
}

/// Single-core peak used by the Table 4 efficiency columns [GFLOPS, SP].
/// A64FX: 6144/48 = 128; genoa AVX2/AVX-512: 4.1 GHz x 2 FMA x 2 pipes x
/// 8 lanes = 131.2.
inline double a64fxCoreSpGflops() { return 128.0; }
inline double genoaCoreSpGflops() { return 131.2; }

}  // namespace asura::perf
