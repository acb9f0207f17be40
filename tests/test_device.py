import dataclasses

import pytest

from microfatigue.device import (Device, DeviceGeometry, Material,
                                 derive_mechanics, validate_geometry, validate_stiffness)


def test_nominal_area_moment():
    # w*t^3/12 = 10*1.8^3/12 um^4 = 4.86 um^4
    mech = Device.nominal().mechanics
    assert mech.area_moment_m4 == pytest.approx(4.86e-24, rel=1e-12)


def test_nominal_effective_area():
    # 420*180 - 40*20^2 = 59600 um^2
    mech = Device.nominal().mechanics
    assert mech.effective_area_m2 == pytest.approx(59600e-12, rel=1e-12)


def test_nominal_stiffness_and_mass():
    mech = Device.nominal().mechanics
    assert mech.suspension_stiffness_N_m == pytest.approx(45.96, rel=1e-3)
    assert mech.plate_mass_kg == pytest.approx(5.53e-9, rel=1e-2)


def test_material_unit_conversion():
    # The data-sheet defaults convert to SI exactly.
    mat = Material()
    assert (mat.E_GPa, mat.nu, mat.rho_kg_per_um3) == (98.5, 0.42, 19.32e-15)
    assert mat.youngs_modulus_Pa == 98.5e9
    assert mat.density_kg_m3 == 19320.0


def test_thickness_scaling():
    geom = DeviceGeometry()
    doubled = dataclasses.replace(geom, specimen_thickness_um=2 * geom.specimen_thickness_um)
    mat = Material()
    base = derive_mechanics(geom, mat)
    thick = derive_mechanics(doubled, mat)
    assert thick.area_moment_m4 == pytest.approx(8 * base.area_moment_m4, rel=1e-12)
    assert thick.suspension_stiffness_N_m == pytest.approx(
        8 * base.suspension_stiffness_N_m, rel=1e-12)


def test_stiffness_calibration_factor():
    base = derive_mechanics(DeviceGeometry(), Material(), c_k=1.0)
    scaled = derive_mechanics(DeviceGeometry(), Material(), c_k=3.7)
    assert scaled.suspension_stiffness_N_m == pytest.approx(
        3.7 * base.suspension_stiffness_N_m, rel=1e-12)
    assert scaled.plate_mass_kg == base.plate_mass_kg


def test_validate_nominal_is_clean():
    assert validate_geometry(DeviceGeometry()) == []


def test_validate_zero_gap():
    problems = validate_geometry(dataclasses.replace(DeviceGeometry(), gap_um=0.0))
    assert len(problems) == 1
    assert "gap_um" in problems[0]


def test_validate_hole_area_exceeds_plate():
    # 200 holes of 20 um side: 80000 um^2 > 75600 um^2 plate
    problems = validate_geometry(dataclasses.replace(DeviceGeometry(), hole_count=200))
    assert any("hole" in p for p in problems)


def test_validate_negative_hole_count():
    problems = validate_geometry(dataclasses.replace(DeviceGeometry(), hole_count=-1))
    assert any("hole_count" in p for p in problems)


def test_derive_rejects_invalid_geometry():
    bad = dataclasses.replace(DeviceGeometry(), specimen_length_um=-5.0)
    with pytest.raises(ValueError, match="specimen_length_um"):
        derive_mechanics(bad, Material())


def test_derive_rejects_nonpositive_calibration():
    with pytest.raises(ValueError, match="c_k"):
        derive_mechanics(DeviceGeometry(), Material(), c_k=0.0)


def test_validate_stiffness_names_c_k_and_E_GPa():
    nominal = Device.nominal()
    assert validate_stiffness(nominal.mechanics, nominal.geometry) == []
    thin = DeviceGeometry(specimen_length_um=1e-3, specimen_width_um=1e6,
                          specimen_thickness_um=1e-3, plate_length_um=1e6,
                          plate_width_um=1e-3, gap_um=1e-3, hole_count=0)
    for mech, geom, names in (
            # The stiffness itself overflows, or only the pull-in voltage it sets does.
            (derive_mechanics(DeviceGeometry(), Material(E_GPa=1e299)), nominal.geometry,
             ["c_k", "E_GPa"]),
            (dataclasses.replace(nominal.mechanics, suspension_stiffness_N_m=1e308),
             nominal.geometry, ["c_k", "E_GPa"]),
            # A divisor of the equilibrium solve underflows to 0: k*g^3, which c_k and
            # E_GPa scale alike, or 4*I*c_k, which only c_k scales.
            (dataclasses.replace(nominal.mechanics, suspension_stiffness_N_m=1e-307), thin,
             ["c_k", "E_GPa"]),
            (derive_mechanics(thin, Material(E_GPa=1.0), c_k=1e-297), thin, ["c_k"])):
        problems = validate_stiffness(mech, geom)
        assert [p.partition(": ")[0] for p in problems] == names


def test_determinism():
    a = derive_mechanics(DeviceGeometry(), Material())
    b = derive_mechanics(DeviceGeometry(), Material())
    assert a == b
