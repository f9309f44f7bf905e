// Package device models the smartphone hardware that CAPMAN powers: the
// CPU with its C-states and DVFS levels, the screen, and the WiFi radio.
// The power models follow Table II of the paper and the average state powers
// of Table III; the finite power-state machine follows Figure 7.
//
// All powers are watts; Table III of the paper reports milliwatts.
package device

import "fmt"

// CPUState is a processor power state (Figure 7).
type CPUState int

// CPU power states, deepest sleep first.
const (
	CPUSleep CPUState = iota + 1
	CPUC2
	CPUC1
	CPUC0
)

// String names the state as the paper does.
func (s CPUState) String() string {
	switch s {
	case CPUSleep:
		return "SLEEP"
	case CPUC2:
		return "C2"
	case CPUC1:
		return "C1"
	case CPUC0:
		return "C0"
	default:
		return fmt.Sprintf("CPUState(%d)", int(s))
	}
}

// CPUStates lists all CPU states in ascending power order.
func CPUStates() []CPUState { return []CPUState{CPUSleep, CPUC2, CPUC1, CPUC0} }

// ScreenState is the display state.
type ScreenState int

// Screen states.
const (
	ScreenOff ScreenState = iota + 1
	ScreenOn
)

// String names the state.
func (s ScreenState) String() string {
	switch s {
	case ScreenOff:
		return "OFF"
	case ScreenOn:
		return "ON"
	default:
		return fmt.Sprintf("ScreenState(%d)", int(s))
	}
}

// ScreenStates lists all screen states.
func ScreenStates() []ScreenState { return []ScreenState{ScreenOff, ScreenOn} }

// WiFiState is the radio state.
type WiFiState int

// WiFi states.
const (
	WiFiIdle WiFiState = iota + 1
	WiFiAccess
	WiFiSend
)

// String names the state.
func (s WiFiState) String() string {
	switch s {
	case WiFiIdle:
		return "IDLE"
	case WiFiAccess:
		return "ACCESS"
	case WiFiSend:
		return "SEND"
	default:
		return fmt.Sprintf("WiFiState(%d)", int(s))
	}
}

// WiFiStates lists all WiFi states.
func WiFiStates() []WiFiState { return []WiFiState{WiFiIdle, WiFiAccess, WiFiSend} }

// PowerBreakdown itemises one step's power draw in watts.
type PowerBreakdown struct {
	CPU    float64
	Screen float64
	WiFi   float64
}

// Total returns the summed component power.
func (b PowerBreakdown) Total() float64 { return b.CPU + b.Screen + b.WiFi }

// HeatSplit apportions the power between the thermal nodes: the CPU's
// share concentrates at the hot spot, everything else spreads into the
// body.
func (b PowerBreakdown) HeatSplit() (cpuW, bodyW float64) { return b.CPU, b.Screen + b.WiFi }
