// Device state-space operations (state_space_cuda.h -> state_space_hip.h,
// conversion inventory item 4): initialization, norms, inner products,
// Born-rule sampling, and measurement collapse for a state vector in
// (virtual) device memory. Host code here only launches kernels and copies
// small partial-result buffers — the state itself never leaves the device.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/base/error.h"
#include "src/base/rng.h"
#include "src/hipsim/state_space_hip_kernels.h"
#include "src/hipsim/vectorspace_hip.h"

namespace qhip::hipsim {

template <typename FP>
class StateSpaceHIP {
 public:
  explicit StateSpaceHIP(vgpu::Device& dev) : dev_(&dev) {}

  // |0...0>.
  void set_zero_state(DeviceStateVector<FP>& s) {
    fill(s, cplx<FP>{});
    set_ampl(s, 0, cplx<FP>{1});
  }

  // Uniform superposition.
  void set_uniform_state(DeviceStateVector<FP>& s) {
    const FP a = FP(1) / static_cast<FP>(std::sqrt(static_cast<double>(s.size())));
    fill(s, cplx<FP>{a});
  }

  void set_basis_state(DeviceStateVector<FP>& s, index_t i) {
    check(i < s.size(), "set_basis_state: index out of range");
    fill(s, cplx<FP>{});
    set_ampl(s, i, cplx<FP>{1});
  }

  void fill(DeviceStateVector<FP>& s, cplx<FP> value) {
    FillKernel<FP> k{s.device_data(), s.size(), value};
    dev_->launch("Fill_Kernel", grid_for(s.size()), k);
  }

  void set_ampl(DeviceStateVector<FP>& s, index_t index, cplx<FP> value) {
    SetAmplKernel<FP> k{s.device_data(), index, value};
    dev_->launch("SetAmpl_Kernel", {1, 1, 0, false}, k);
  }

  // Amplitudes of specific basis states; only `indices.size()` complex
  // values cross the bus (the qsim_amplitudes access pattern).
  std::vector<cplx<FP>> get_amplitudes(const DeviceStateVector<FP>& s,
                                       const std::vector<index_t>& indices) {
    if (indices.empty()) return {};
    for (index_t i : indices) {
      check(i < s.size(), "get_amplitudes: index out of range");
    }
    index_t* d_idx = dev_->malloc_n<index_t>(indices.size());
    cplx<FP>* d_out = dev_->malloc_n<cplx<FP>>(indices.size());
    dev_->memcpy_h2d(d_idx, indices.data(), indices.size() * sizeof(index_t));
    GatherAmplitudesKernel<FP> k{s.device_data(), d_idx,
                                 static_cast<index_t>(indices.size()), d_out};
    dev_->launch("GatherAmplitudes_Kernel", grid_for(indices.size()), k);
    std::vector<cplx<FP>> out(indices.size());
    dev_->memcpy_d2h(out.data(), d_out, out.size() * sizeof(cplx<FP>));
    dev_->free(d_idx);
    dev_->free(d_out);
    return out;
  }

  double norm2(const DeviceStateVector<FP>& s) {
    const vgpu::LaunchConfig cfg = reduce_grid_for(s.size());
    std::vector<double> partial(cfg.grid_dim);
    double* d_partial = dev_->malloc_n<double>(cfg.grid_dim);
    Norm2Kernel<FP> k{s.device_data(), s.size(), d_partial};
    dev_->launch("Norm2_Kernel", cfg, k);
    dev_->memcpy_d2h(partial.data(), d_partial, cfg.grid_dim * sizeof(double));
    dev_->free(d_partial);
    double total = 0;
    for (double v : partial) total += v;
    return total;
  }

  cplx64 inner_product(const DeviceStateVector<FP>& a,
                       const DeviceStateVector<FP>& b) {
    check(a.size() == b.size(), "inner_product: size mismatch");
    const vgpu::LaunchConfig cfg = reduce_grid_for(a.size());
    double* d_re = dev_->malloc_n<double>(cfg.grid_dim);
    double* d_im = dev_->malloc_n<double>(cfg.grid_dim);
    InnerProductKernel<FP> k{a.device_data(), b.device_data(), a.size(), d_re, d_im};
    dev_->launch("InnerProduct_Kernel", cfg, k);
    std::vector<double> re(cfg.grid_dim), im(cfg.grid_dim);
    dev_->memcpy_d2h(re.data(), d_re, cfg.grid_dim * sizeof(double));
    dev_->memcpy_d2h(im.data(), d_im, cfg.grid_dim * sizeof(double));
    dev_->free(d_re);
    dev_->free(d_im);
    cplx64 total{};
    for (unsigned i = 0; i < cfg.grid_dim; ++i) total += cplx64(re[i], im[i]);
    return total;
  }

  // Multiplies every amplitude by `factor`.
  void scale(DeviceStateVector<FP>& s, FP factor) {
    ScaleKernel<FP> k{s.device_data(), s.size(), factor};
    dev_->launch("Scale_Kernel", grid_for(s.size()), k);
  }

  // Zeroes every amplitude whose bits under `mask` differ from `value`.
  void collapse(DeviceStateVector<FP>& s, index_t mask, index_t value) {
    CollapseKernel<FP> k{s.device_data(), s.size(), mask, value};
    dev_->launch("Collapse_Kernel", grid_for(s.size()), k);
  }

  // Scales so that norm2(s) == 1; returns the pre-normalization norm.
  double normalize(DeviceStateVector<FP>& s) {
    const double n2 = norm2(s);
    check(n2 > 0, "normalize: zero state");
    scale(s, static_cast<FP>(1.0 / std::sqrt(n2)));
    return std::sqrt(n2);
  }

  // Draws `num_samples` basis-state indices per the Born rule. Two passes on
  // the device — per-chunk probability sums, then a per-chunk inverse-CDF
  // resolve — with only O(chunks + samples) host traffic.
  std::vector<index_t> sample(const DeviceStateVector<FP>& s,
                              std::size_t num_samples, std::uint64_t seed) {
    if (num_samples == 0) return {};

    // Pass 1: chunk sums.
    const index_t chunk_size = std::max<index_t>(s.size() / 4096, 1024);
    const unsigned num_chunks =
        static_cast<unsigned>((s.size() + chunk_size - 1) / chunk_size);
    double* d_sums = dev_->malloc_n<double>(num_chunks);
    {
      ChunkSumKernel<FP> k{s.device_data(), s.size(), chunk_size, d_sums};
      const vgpu::LaunchConfig cfg{num_chunks, kReduceBlockDim,
                                   shared_for_reduce(), true, {}};
      dev_->launch("ChunkSum_Kernel", cfg, k);
    }
    std::vector<double> sums(num_chunks);
    dev_->memcpy_d2h(sums.data(), d_sums, num_chunks * sizeof(double));
    dev_->free(d_sums);

    std::vector<double> csum(num_chunks + 1, 0.0);
    for (unsigned c = 0; c < num_chunks; ++c) csum[c + 1] = csum[c] + sums[c];
    const double total = csum[num_chunks];

    // Sorted uniforms scaled into the actual total to absorb rounding.
    std::vector<double> rs(num_samples);
    Philox rng(seed, /*stream=*/0x5a17);
    for (auto& r : rs) r = rng.uniform() * total;
    std::sort(rs.begin(), rs.end());

    // Assign each chunk its contiguous run of samples.
    std::vector<index_t> chunk_idx;
    std::vector<double> csum0;
    std::vector<std::uint32_t> sbegin, send;
    std::size_t k = 0;
    for (unsigned c = 0; c < num_chunks && k < num_samples; ++c) {
      if (rs[k] >= csum[c + 1]) continue;
      const std::uint32_t b = static_cast<std::uint32_t>(k);
      while (k < num_samples && rs[k] < csum[c + 1]) ++k;
      chunk_idx.push_back(c);
      csum0.push_back(csum[c]);
      sbegin.push_back(b);
      send.push_back(static_cast<std::uint32_t>(k));
    }
    // Anything left (uniforms at/beyond the last boundary) goes to the tail
    // of the last chunk.
    if (k < num_samples) {
      chunk_idx.push_back(num_chunks - 1);
      csum0.push_back(csum[num_chunks - 1]);
      sbegin.push_back(static_cast<std::uint32_t>(k));
      send.push_back(static_cast<std::uint32_t>(num_samples));
    }

    // Pass 2: resolve on device.
    const unsigned w = static_cast<unsigned>(chunk_idx.size());
    index_t* d_chunk = dev_->malloc_n<index_t>(w);
    double* d_csum0 = dev_->malloc_n<double>(w);
    std::uint32_t* d_sb = dev_->malloc_n<std::uint32_t>(w);
    std::uint32_t* d_se = dev_->malloc_n<std::uint32_t>(w);
    double* d_rs = dev_->malloc_n<double>(num_samples);
    index_t* d_out = dev_->malloc_n<index_t>(num_samples);
    dev_->memcpy_h2d(d_chunk, chunk_idx.data(), w * sizeof(index_t));
    dev_->memcpy_h2d(d_csum0, csum0.data(), w * sizeof(double));
    dev_->memcpy_h2d(d_sb, sbegin.data(), w * sizeof(std::uint32_t));
    dev_->memcpy_h2d(d_se, send.data(), w * sizeof(std::uint32_t));
    dev_->memcpy_h2d(d_rs, rs.data(), num_samples * sizeof(double));
    SampleResolveKernel<FP> rk{s.device_data(), s.size(), chunk_size,
                               d_chunk, d_csum0, d_sb, d_se, d_rs, d_out};
    dev_->launch("SampleResolve_Kernel", {w, 1, 0, false, {}}, rk);
    std::vector<index_t> out(num_samples);
    dev_->memcpy_d2h(out.data(), d_out, num_samples * sizeof(index_t));
    for (void* p : {static_cast<void*>(d_chunk), static_cast<void*>(d_csum0),
                    static_cast<void*>(d_sb), static_cast<void*>(d_se),
                    static_cast<void*>(d_rs), static_cast<void*>(d_out)}) {
      dev_->free(p);
    }

    // De-sort deterministically (samples are i.i.d.).
    Philox shuf(seed, /*stream=*/0x5a18);
    for (std::size_t i = out.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(shuf.uniform() * i);
      std::swap(out[i - 1], out[j]);
    }
    return out;
  }

  // Measures `qubits`: draws one Born sample, takes its bits at the measured
  // positions as the outcome, collapses and renormalizes.
  index_t measure(DeviceStateVector<FP>& s, const std::vector<qubit_t>& qubits,
                  std::uint64_t seed) {
    check(!qubits.empty(), "measure: empty qubit list");
    const std::vector<index_t> one = sample(s, 1, seed);
    const index_t outcome = gather_bits(one[0], qubits);
    index_t mask = 0;
    for (qubit_t q : qubits) mask |= pow2(q);
    collapse(s, mask, scatter_bits(outcome, qubits));
    normalize(s);
    return outcome;
  }

 private:
  vgpu::LaunchConfig grid_for(index_t size) const {
    const index_t blocks = (size + kReduceBlockDim - 1) / kReduceBlockDim;
    const unsigned grid =
        static_cast<unsigned>(std::min<index_t>(blocks, 4096));
    return {std::max(grid, 1u), kReduceBlockDim, 0, false, {}};
  }

  std::size_t shared_for_reduce() const {
    return (kReduceBlockDim / 32) * sizeof(double);
  }

  vgpu::LaunchConfig reduce_grid_for(index_t size) const {
    vgpu::LaunchConfig cfg = grid_for(size);
    cfg.needs_sync = true;  // block_reduce_sum uses __syncthreads
    cfg.shared_bytes = shared_for_reduce();
    return cfg;
  }

  vgpu::Device* dev_;
};

}  // namespace qhip::hipsim
