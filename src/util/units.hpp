#pragma once
/// \file units.hpp
/// \brief Galactic unit system and physical constants.
///
/// The code works in (pc, M_sun, Myr).  In these units the gravitational
/// constant is G = 4.49857e-3 and the velocity unit is 0.9778 km/s, so
/// galactic rotation speeds (~220 km/s) are O(200) and are well conditioned.
/// Temperatures are kept in Kelvin and converted to specific internal
/// energy u [pc^2/Myr^2] through u = kB T / ((gamma-1) mu m_H).

namespace asura::units {

// --- base conversions (CODATA / IAU nominal values) ---
inline constexpr double pc_in_m = 3.0856775814913673e16;
inline constexpr double msun_in_kg = 1.98892e30;
inline constexpr double myr_in_s = 3.1557e13;
inline constexpr double yr_in_myr = 1.0e-6;

/// Gravitational constant in pc^3 M_sun^-1 Myr^-2.
inline constexpr double G = 4.498538e-3;

/// 1 code velocity unit (pc/Myr) in km/s.
inline constexpr double velocity_in_kms = 0.97779;

/// kB / m_H expressed in (pc/Myr)^2 per Kelvin.
/// kB = 1.380649e-23 J/K, m_H = 1.6735575e-27 kg
/// => kB/m_H = 8250.3 (m/s)^2/K = 8250.3 / (977.79)^2 (pc/Myr)^2/K.
inline constexpr double kB_over_mH = 8.6297e-3;

/// Adiabatic index of the monatomic interstellar gas.
inline constexpr double gamma_gas = 5.0 / 3.0;

/// Mean molecular weights.
inline constexpr double mu_neutral = 1.27;   ///< atomic H + He
inline constexpr double mu_ionized = 0.59;   ///< fully ionized H + He
/// Mean molecular weight of the gas u <-> T conversions other than star
/// formation's: cooling, voxelization and the temperature PDF.
inline constexpr double mu_gas = 0.6;

/// Canonical supernova energy 1e51 erg in M_sun pc^2 Myr^-2.
/// 1e51 erg = 1e44 J; unit = msun_in_kg * (pc_in_m/myr_in_s)^2 = 1.9016e36 J.
inline constexpr double E_SN = 5.2587e7;

/// Convert temperature [K] -> specific internal energy [pc^2/Myr^2].
constexpr double temperature_to_u(double T, double mu) {
  return kB_over_mH * T / ((gamma_gas - 1.0) * mu);
}

/// Convert specific internal energy [pc^2/Myr^2] -> temperature [K].
constexpr double u_to_temperature(double u, double mu) {
  return u * (gamma_gas - 1.0) * mu / kB_over_mH;
}

/// Hydrogen number density [cm^-3] for a gas mass density [M_sun/pc^3]
/// (X_H = 0.76 hydrogen mass fraction).
inline constexpr double nH_per_density = 30.85;  // n_H [cm^-3] = 30.85 * rho

/// km/s -> pc/Myr.
constexpr double kms_to_code(double v) { return v / velocity_in_kms; }
constexpr double code_to_kms(double v) { return v * velocity_in_kms; }

}  // namespace asura::units
