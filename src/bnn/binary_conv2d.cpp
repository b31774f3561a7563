#include "bnn/binary_conv2d.hpp"

#include "bnn/engine.hpp"
#include "bnn/plan.hpp"
#include "core/check.hpp"

namespace flim::bnn {

BinaryConv2D::BinaryConv2D(std::string name, std::int64_t in_channels,
                           std::int64_t out_channels, std::int64_t kernel,
                           std::int64_t stride, std::int64_t pad,
                           tensor::FloatTensor weights)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      packed_weights_(tensor::BitMatrix::from_float(weights)) {
  FLIM_REQUIRE(kernel_ >= 1 && stride_ >= 1 && pad_ >= 0,
               "binary conv2d kernel/stride must be >= 1 and pad >= 0");
  const std::int64_t k = in_channels_ * kernel_ * kernel_;
  FLIM_REQUIRE((weights.shape() == tensor::Shape{out_channels_, k}),
               "binary conv2d weights must be [out_channels, in_ch*kh*kw]");
}

void BinaryConv2D::plan(PlanContext& pc) const {
  const tensor::Shape& in = pc.shape();
  FLIM_REQUIRE(in.rank() == 4, "binary conv2d expects NCHW input");
  FLIM_REQUIRE(in[1] == in_channels_, "binary conv2d input channel mismatch");
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
  st.binary_macs = st.positions * out_channels_ * g.patch_size();
  st.bit_slot = pc.alloc_bit_slot();
  st.int_slot = pc.alloc_int_slot();
  if (kernel_ <= 64) {
    // Word-level patch assembly from pre-binarized image rows.
    st.bit_rows_slot = pc.alloc_bit_slot();
  } else {
    st.gather = tensor::make_im2col_gather(g);
  }
  st.out_shape = tensor::Shape{in[0], out_channels_, g.out_h(), g.out_w()};
  st.acc_shape = tensor::Shape{in[0] * st.positions, out_channels_};
  pc.set_shape(st.out_shape);
  pc.release_slots(si);
}

void BinaryConv2D::execute(const tensor::FloatTensor& input,
                           tensor::FloatTensor& out, ExecContext& ec) const {
  const PlanStep& st = ec.next_step();
  const std::int64_t n = input.shape()[0];
  const std::int64_t oh = st.out_shape[2];
  const std::int64_t ow = st.out_shape[3];

  tensor::BitMatrix& activations = ec.bit_slot(st.bit_slot);
  ec.ws().reshape(activations, n * st.positions, st.geom.patch_size());
  if (st.bit_rows_slot >= 0) {
    tensor::BitMatrix& rows = ec.bit_slot(st.bit_rows_slot);
    ec.ws().reshape(rows, n * st.geom.in_channels * st.geom.in_h,
                    st.geom.in_w + 2 * st.geom.pad);
    tensor::im2col_binary_packed(input, st.geom, rows, activations);
  } else {
    tensor::im2col_binary_gather(input, st.geom, st.gather, activations);
  }

  tensor::IntTensor& flat = ec.int_slot(st.int_slot);
  ec.ws().reshape(flat, st.acc_shape);
  ec.engine().execute(name(), activations, packed_weights_, st.positions,
                      flat);

  ec.ws().reshape(out, st.out_shape);
  const std::int64_t ohw = oh * ow;
  // [positions, out_ch] -> NCHW with sequential writes (strided reads
  // prefetch better than strided writes).
  for (std::int64_t b = 0; b < n; ++b) {
    float* obase = out.data() + b * out_channels_ * ohw;
    const std::int32_t* fbase = flat.data() + b * ohw * out_channels_;
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      float* orow = obase + c * ohw;
      const std::int32_t* src = fbase + c;
      for (std::int64_t p = 0; p < ohw; ++p) {
        orow[p] = static_cast<float>(src[p * out_channels_]);
      }
    }
  }
}

}  // namespace flim::bnn
