package device

import (
	"errors"
	"fmt"
)

// Demand is the software-level load the workload generators impose on the
// phone each simulation step.
type Demand struct {
	CPUState   CPUState
	CPUUtil    float64 // utilisation fraction in [0, 1], meaningful in C0
	CPUFreqIdx int     // DVFS level index into the profile's FreqKHz

	Screen     ScreenState
	Brightness float64 // [0, 1], meaningful when the screen is on

	WiFi       WiFiState
	PacketRate float64 // packets/s, meaningful outside WiFiIdle
}

// Phone composes the component models behind the Figure 7 state machine.
// A Phone is not safe for concurrent use.
type Phone struct {
	profile Profile

	cpu        CPUState
	cpuUtil    float64
	cpuFreqIdx int

	screen     ScreenState
	brightness float64

	wifi       WiFiState
	packetRate float64

	transitions int
}

// NewPhone builds a phone in its deepest idle state.
func NewPhone(p Profile) (*Phone, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Phone{
		profile:    p,
		cpu:        CPUSleep,
		screen:     ScreenOff,
		wifi:       WiFiIdle,
		brightness: 0.5,
	}, nil
}

// Profile returns the phone's profile.
func (ph *Phone) Profile() Profile { return ph.profile }

// CPU returns the current CPU state.
func (ph *Phone) CPU() CPUState { return ph.cpu }

// Screen returns the current screen state.
func (ph *Phone) Screen() ScreenState { return ph.screen }

// WiFi returns the current WiFi state.
func (ph *Phone) WiFi() WiFiState { return ph.wifi }

// Utilization returns the current CPU utilisation fraction.
func (ph *Phone) Utilization() float64 { return ph.cpuUtil }

// FreqIndex returns the current DVFS level index.
func (ph *Phone) FreqIndex() int { return ph.cpuFreqIdx }

// Transitions returns how many device power-state changes have occurred.
func (ph *Phone) Transitions() int { return ph.transitions }

// Demand errors.
var errBadDemand = errors.New("device: invalid demand")

// Apply moves the phone to the demanded state, counting state transitions.
func (ph *Phone) Apply(d Demand) error {
	if d.CPUUtil < 0 || d.CPUUtil > 1 {
		return fmt.Errorf("%w: utilisation %v", errBadDemand, d.CPUUtil)
	}
	if d.Brightness < 0 || d.Brightness > 1 {
		return fmt.Errorf("%w: brightness %v", errBadDemand, d.Brightness)
	}
	if d.PacketRate < 0 {
		return fmt.Errorf("%w: packet rate %v", errBadDemand, d.PacketRate)
	}
	if d.CPUFreqIdx < 0 {
		return fmt.Errorf("%w: DVFS index %d", errBadDemand, d.CPUFreqIdx)
	}
	// Demands are generated phone-agnostically; a request beyond this
	// phone's DVFS range runs at its top level.
	if d.CPUFreqIdx >= len(ph.profile.FreqKHz) {
		d.CPUFreqIdx = len(ph.profile.FreqKHz) - 1
	}
	if _, ok := ph.profile.CPUBaseW[d.CPUState]; !ok {
		return fmt.Errorf("%w: CPU state %v", errBadDemand, d.CPUState)
	}
	switch d.Screen {
	case ScreenOff, ScreenOn:
	default:
		return fmt.Errorf("%w: screen state %v", errBadDemand, d.Screen)
	}
	switch d.WiFi {
	case WiFiIdle, WiFiAccess, WiFiSend:
	default:
		return fmt.Errorf("%w: WiFi state %v", errBadDemand, d.WiFi)
	}

	if d.CPUState != ph.cpu {
		ph.transitions++
	}
	if d.Screen != ph.screen {
		ph.transitions++
	}
	if d.WiFi != ph.wifi {
		ph.transitions++
	}
	ph.cpu = d.CPUState
	ph.cpuUtil = d.CPUUtil
	ph.cpuFreqIdx = d.CPUFreqIdx
	ph.screen = d.Screen
	ph.brightness = d.Brightness
	ph.wifi = d.WiFi
	ph.packetRate = d.PacketRate
	return nil
}

// Power evaluates the Table II component models at the phone's current
// state and returns the per-component breakdown in watts.
func (ph *Phone) Power() PowerBreakdown {
	return PowerBreakdown{
		CPU:    ph.cpuPower(),
		Screen: ph.screenPower(),
		WiFi:   ph.wifiPower(),
	}
}

func (ph *Phone) cpuPower() float64 {
	base := ph.profile.CPUBaseW[ph.cpu]
	if ph.cpu != CPUC0 {
		return base
	}
	return base + ph.profile.CPUGammaW[ph.cpuFreqIdx]*ph.cpuUtil
}

func (ph *Phone) screenPower() float64 {
	if ph.screen != ScreenOn {
		return ph.profile.ScreenOffW
	}
	alpha := (ph.profile.ScreenAlphaBW + ph.profile.ScreenAlphaWW) / 2
	return ph.profile.ScreenBaseOnW + alpha*ph.brightness
}

func (ph *Phone) wifiPower() float64 {
	if ph.wifi == WiFiIdle {
		return ph.profile.WiFiIdleW
	}
	p := ph.packetRate
	if p <= ph.profile.WiFiThreshold {
		return ph.profile.WiFiBaseLowW + ph.profile.WiFiGammaLowW*p
	}
	return ph.profile.WiFiBaseHighW + ph.profile.WiFiGammaHighW*p
}

// HeatSplit apportions the phone's power draw between the thermal nodes
// (see PowerBreakdown.HeatSplit).
func (ph *Phone) HeatSplit() (cpuW, bodyW float64) { return ph.Power().HeatSplit() }
