#include "bnn/conv2d.hpp"

#include "bnn/plan.hpp"
#include "core/check.hpp"
#include "tensor/gemm.hpp"

namespace flim::bnn {

Conv2D::Conv2D(std::string name, std::int64_t in_channels,
               std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad,
               tensor::FloatTensor weights, tensor::FloatTensor bias)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weights_(std::move(weights)),
      bias_(std::move(bias)) {
  FLIM_REQUIRE(kernel_ >= 1 && stride_ >= 1 && pad_ >= 0,
               "conv2d kernel/stride must be >= 1 and pad >= 0");
  const std::int64_t k = in_channels_ * kernel_ * kernel_;
  FLIM_REQUIRE((weights_.shape() == tensor::Shape{out_channels_, k}),
               "conv2d weights must be [out_channels, in_ch*kh*kw]");
  FLIM_REQUIRE(
(bias_.numel() == 0 || bias_.shape() == tensor::Shape{out_channels_}),
               "conv2d bias must be empty or [out_channels]");
}

void Conv2D::plan(PlanContext& pc) const {
  const tensor::Shape& in = pc.shape();
  FLIM_REQUIRE(in.rank() == 4, "conv2d expects NCHW input");
  FLIM_REQUIRE(in[1] == in_channels_, "conv2d input channel mismatch");
  const std::size_t si = pc.begin_step(*this);
  tensor::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = in[2];
  g.in_w = in[3];
  g.kernel_h = g.kernel_w = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  PlanStep& st = pc.step(si);
  st.geom = g;
  st.positions = g.out_h() * g.out_w();
  st.real_macs = st.positions * out_channels_ * g.patch_size();
  st.gather = tensor::make_im2col_gather(g);
  st.float_slot_a = pc.alloc_float_slot();  // float patches
  st.float_slot_b = pc.alloc_float_slot();  // gemm output [positions, out_ch]
  st.out_shape = tensor::Shape{in[0], out_channels_, g.out_h(), g.out_w()};
  st.patch_shape = tensor::Shape{in[0] * st.positions, g.patch_size()};
  st.acc_shape = tensor::Shape{in[0] * st.positions, out_channels_};
  pc.set_shape(st.out_shape);
  pc.release_slots(si);
}

void Conv2D::execute(const tensor::FloatTensor& input, tensor::FloatTensor& out,
                     ExecContext& ec) const {
  const PlanStep& st = ec.next_step();
  const std::int64_t n = input.shape()[0];
  const std::int64_t oh = st.out_shape[2];
  const std::int64_t ow = st.out_shape[3];

  tensor::FloatTensor& patches = ec.float_slot(st.float_slot_a);
  ec.ws().reshape(patches, st.patch_shape);
  tensor::im2col_gather(input, st.geom, st.gather, 0.0f, patches);

  tensor::FloatTensor& flat = ec.float_slot(st.float_slot_b);
  ec.ws().reshape(flat, st.acc_shape);
  tensor::gemm_bt(patches, weights_, flat);

  ec.ws().reshape(out, st.out_shape);
  const bool has_bias = bias_.numel() > 0;
  const std::int64_t ohw = oh * ow;
  for (std::int64_t b = 0; b < n; ++b) {
    float* obase = out.data() + b * out_channels_ * ohw;
    const float* fbase = flat.data() + b * ohw * out_channels_;
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      float* orow = obase + c * ohw;
      const float* src = fbase + c;
      const float bias = has_bias ? bias_[c] : 0.0f;
      for (std::int64_t p = 0; p < ohw; ++p) {
        orow[p] = src[p * out_channels_] + bias;
      }
    }
  }
}

}  // namespace flim::bnn
