package gpu

import "fmt"

// DVFS support. Section II.B's satisfaction model observes that inside
// the imperceptible region there is no value in finishing early — the
// right move is to lower performance until the runtime lands just under
// T_i and bank the energy. Frequency scaling is the knob: dynamic power
// scales roughly with f·V² (≈ f³ under proportional voltage scaling) and
// static power with V (≈ f), while DRAM bandwidth, fed by its own clock
// domain, is unchanged.

// DefaultFreqLevels are the selectable core-clock fractions, highest
// first (a typical mobile governor's ladder).
var DefaultFreqLevels = []float64{1.0, 0.85, 0.7, 0.55, 0.4}

// AtFrequency returns a copy of the device running at frac of its nominal
// core clock, with the power model rescaled accordingly. frac must be in
// (0, 1].
func (d *Device) AtFrequency(frac float64) (*Device, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("gpu: %s: frequency fraction %g out of (0,1]", d.Name, frac)
	}
	scaled := *d
	scaled.ClockMHz = d.ClockMHz * frac
	scaled.SMDynPowerW = d.SMDynPowerW * frac * frac * frac
	scaled.SMStaticPowerW = d.SMStaticPowerW * frac
	// Idle power is dominated by the always-on domain; scale only its
	// clock-tree share.
	scaled.IdlePowerW = d.IdlePowerW * (0.6 + 0.4*frac)
	if frac != 1 {
		scaled.Name = fmt.Sprintf("%s@%.0f%%", d.Name, frac*100)
	}
	return &scaled, nil
}
