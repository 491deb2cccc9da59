#include "math/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace oda::math {

namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Bluestein's algorithm: re-expresses an arbitrary-size DFT as a
/// convolution, evaluated with power-of-two FFTs.
std::vector<Complex> bluestein(const std::vector<Complex>& x) {
  const std::size_t n = x.size();

  // Chirp w_k = exp(-i * pi * k^2 / n); k^2 mod 2n keeps the argument
  // bounded for large k.
  std::vector<Complex> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = -M_PI * static_cast<double>(k2) / static_cast<double>(n);
    chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }

  const std::size_t m = next_power_of_two(2 * n - 1);
  std::vector<Complex> a(m, Complex(0, 0));
  std::vector<Complex> b(m, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * chirp[k];
  b[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    b[k] = b[m - k] = std::conj(chirp[k]);
  }

  fft_radix2(a, false);
  fft_radix2(b, false);
  for (std::size_t i = 0; i < m; ++i) a[i] *= b[i];
  fft_radix2(a, true);

  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * chirp[k];
  return out;
}

}  // namespace

void fft_radix2(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  ODA_REQUIRE(is_power_of_two(n), "fft_radix2 size must be a power of two");
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1, 0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& c : data) c /= static_cast<double>(n);
  }
}

std::vector<Complex> fft(std::vector<Complex> data) {
  if (data.empty()) return data;
  if (is_power_of_two(data.size())) {
    fft_radix2(data, false);
    return data;
  }
  return bluestein(data);
}

double bin_frequency(std::size_t k, std::size_t n) {
  ODA_REQUIRE(n > 0, "bin_frequency of empty transform");
  return static_cast<double>(k) / static_cast<double>(n);
}

std::vector<SpectralComponent> dominant_components(std::span<const double> signal,
                                                   std::size_t count) {
  const std::size_t n = signal.size();
  if (n < 4 || count == 0) return {};
  // Remove the mean so bin 0 does not dominate.
  const double m = oda::mean(signal);
  std::vector<Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = Complex(signal[i] - m, 0.0);
  const auto spec = fft(std::move(data));

  // Each bin's magnitude once, then only the top `count` bins ordered:
  // descending magnitude, ties to the lower bin.
  std::vector<double> magnitude(n / 2 + 1);
  std::vector<std::size_t> bins(n / 2);
  for (std::size_t k = 1; k <= n / 2; ++k) {
    magnitude[k] = std::abs(spec[k]);
    bins[k - 1] = k;
  }
  const std::size_t top = std::min(count, bins.size());
  std::partial_sort(bins.begin(), bins.begin() + static_cast<std::ptrdiff_t>(top),
                    bins.end(), [&](std::size_t a, std::size_t b) {
                      return magnitude[a] > magnitude[b] ||
                             (magnitude[a] == magnitude[b] && a < b);
                    });

  std::vector<SpectralComponent> out;
  out.reserve(top);
  for (std::size_t i = 0; i < top; ++i) {
    const std::size_t k = bins[i];
    SpectralComponent c;
    c.frequency = bin_frequency(k, n);
    // One-sided amplitude: 2|X_k|/n (the conjugate bin carries the rest);
    // the Nyquist bin (k == n/2 for even n) is not doubled.
    const bool nyquist = (n % 2 == 0) && (k == n / 2);
    c.amplitude = (nyquist ? 1.0 : 2.0) * magnitude[k] / static_cast<double>(n);
    c.phase = std::arg(spec[k]);
    out.push_back(c);
  }
  return out;
}

std::vector<double> fft_autocorrelation(std::span<const double> signal,
                                        std::size_t max_lag) {
  const std::size_t n = signal.size();
  if (n < 2) return std::vector<double>(max_lag + 1, 0.0);
  const double m = oda::mean(signal);
  // Zero-pad to 2n to get linear (not cyclic) correlation.
  const std::size_t padded = next_power_of_two(2 * n);
  std::vector<Complex> data(padded, Complex(0, 0));
  for (std::size_t i = 0; i < n; ++i) data[i] = Complex(signal[i] - m, 0.0);
  fft_radix2(data, false);
  for (auto& c : data) c = Complex(std::norm(c), 0.0);
  fft_radix2(data, true);

  std::vector<double> out(max_lag + 1, 0.0);
  const double norm0 = data[0].real();
  if (norm0 <= 0.0) return out;
  for (std::size_t lag = 0; lag <= max_lag && lag < n; ++lag) {
    out[lag] = data[lag].real() / norm0;
  }
  return out;
}

}  // namespace oda::math
