// Package workload generates the software demand streams CAPMAN schedules
// against: the paper's Geekbench, PCMark, Video and η-Static benchmarks,
// plus the Screen-On/Off cycler and idle baseline of the motivation section.
//
// Each generator emits one Step per simulation tick: a device.Demand (the
// hardware state the software requires) plus the Action — a system-call-like
// event symbol the MDP uses as its action vocabulary. Generators are
// deterministic for a given seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/device"
)

// Action is a system-call-like event in the MDP's action vocabulary
// (the paper records "over 200 system calls"; we use a compact symbolic
// vocabulary with the same role).
type Action int

// The action vocabulary.
const (
	ActNone Action = iota + 1
	ActWake
	ActSleep
	ActScreenOn
	ActScreenOff
	ActAppLaunch
	ActAppExit
	ActComputeStart
	ActComputeEnd
	ActFrameDecode
	ActNetFetchStart
	ActNetFetchEnd
	ActNetSend
	ActUserTouch
	ActBrightnessUp
	ActBrightnessDown
	ActDVFSUp
	ActDVFSDown
	ActSyncTick
	ActThermalAlert
	actionCount
)

// NumActions is the size of the action vocabulary.
const NumActions = int(actionCount) - 1

// String names the action.
func (a Action) String() string {
	names := [...]string{
		ActNone: "none", ActWake: "wake", ActSleep: "sleep",
		ActScreenOn: "screen_on", ActScreenOff: "screen_off",
		ActAppLaunch: "app_launch", ActAppExit: "app_exit",
		ActComputeStart: "compute_start", ActComputeEnd: "compute_end",
		ActFrameDecode: "frame_decode", ActNetFetchStart: "net_fetch_start",
		ActNetFetchEnd: "net_fetch_end", ActNetSend: "net_send",
		ActUserTouch: "user_touch", ActBrightnessUp: "brightness_up",
		ActBrightnessDown: "brightness_down", ActDVFSUp: "dvfs_up",
		ActDVFSDown: "dvfs_down", ActSyncTick: "sync_tick",
		ActThermalAlert: "thermal_alert",
	}
	if a >= 1 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Actions lists the whole vocabulary.
func Actions() []Action {
	out := make([]Action, 0, NumActions)
	for a := ActNone; a < actionCount; a++ {
		out = append(out, a)
	}
	return out
}

// Step is one tick of software demand.
type Step struct {
	Demand device.Demand
	Action Action
}

// Generator produces a demand stream. Next is called once per simulation
// tick with the current simulated time and tick length; generators must be
// deterministic functions of their seed and call sequence.
type Generator interface {
	Name() string
	Next(now, dt float64) Step
}

// Fresh turns a fallible constructor into the fresh-generator factory a
// run takes: it builds one generator to validate the parameters and
// returns a factory whose every call builds a new one. build must be
// deterministic, so that a factory call fails only if build has a bug.
func Fresh(build func() (Generator, error)) (func() Generator, error) {
	if _, err := build(); err != nil {
		return nil, err
	}
	return func() Generator {
		g, err := build()
		if err != nil {
			panic(err)
		}
		return g
	}, nil
}

// demand helpers ------------------------------------------------------------

func sleepDemand() device.Demand {
	return device.Demand{
		CPUState: device.CPUSleep,
		Screen:   device.ScreenOff,
		WiFi:     device.WiFiIdle,
	}
}

func idleOnDemand(brightness float64) device.Demand {
	return device.Demand{
		CPUState:   device.CPUC2,
		CPUUtil:    0,
		Screen:     device.ScreenOn,
		Brightness: brightness,
		WiFi:       device.WiFiIdle,
	}
}

// newRNG builds the package's deterministic RNG.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
