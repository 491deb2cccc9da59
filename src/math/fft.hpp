// Fast Fourier transform: iterative radix-2 Cooley–Tukey for power-of-two
// sizes and Bluestein's chirp-z algorithm for arbitrary sizes. Powers the
// spectral power-forecaster (the LLNL beyond-the-datacenter use case) and
// the OS-noise analyzer.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace oda::math {

using Complex = std::complex<double>;

/// In-place radix-2 FFT; size must be a power of two.
void fft_radix2(std::vector<Complex>& data, bool inverse);

/// FFT of arbitrary size (radix-2 when possible, Bluestein otherwise).
std::vector<Complex> fft(std::vector<Complex> data);

/// Frequency (cycles per sample) of one-sided bin k for an n-point transform.
double bin_frequency(std::size_t k, std::size_t n);

/// A dominant spectral component extracted from a real signal.
struct SpectralComponent {
  double frequency = 0.0;  // cycles per sample
  double amplitude = 0.0;
  double phase = 0.0;      // radians
};

/// The strongest `count` nonzero-frequency components, by descending bin
/// magnitude; equal magnitudes keep the lower frequency first.
std::vector<SpectralComponent> dominant_components(std::span<const double> signal,
                                                   std::size_t count);

/// Fast cyclic autocorrelation via FFT (biased, normalized by lag-0).
// ODA-LINT-ALLOW(production-caller): only tests call it (ROADMAP item 12)
std::vector<double> fft_autocorrelation(std::span<const double> signal,
                                        std::size_t max_lag);

}  // namespace oda::math
