// Customspec shows the declarative workload path: define a duty cycle as a
// JSON spec (no Go code), load it, and run it through the simulator. The
// same JSON works with `capman-sim -workload spec:<file>`.
//
// Run with:
//
//	go run ./examples/customspec
package main

import (
	"fmt"
	"log"
	"strings"

	capman "repro"
	"repro/internal/workload"
)

// specJSON is a fitness-tracker-ish duty cycle: mostly asleep, a sensor
// sync each minute, and a short interactive burst every five minutes.
// Demand enums: CPUState 1=SLEEP..4=C0, Screen 1=OFF 2=ON, WiFi 1=IDLE
// 2=ACCESS 3=SEND.
const specJSON = `{
 "name": "tracker-duty",
 "loop": true,
 "phases": [
  {"durationS": 55, "jitterS": 10,
   "demand": {"CPUState": 1, "Screen": 1, "WiFi": 1},
   "action": "sleep"},
  {"durationS": 2,
   "demand": {"CPUState": 3, "Screen": 1, "WiFi": 2, "PacketRate": 300},
   "action": "sync_tick"},
  {"durationS": 240, "jitterS": 60,
   "demand": {"CPUState": 1, "Screen": 1, "WiFi": 1}},
  {"durationS": 20, "jitterS": 10,
   "demand": {"CPUState": 4, "CPUUtil": 0.8, "CPUFreqIdx": 2,
              "Screen": 2, "Brightness": 0.7, "WiFi": 3, "PacketRate": 1200},
   "action": "wake"}
 ]
}`

func main() {
	spec, err := workload.ParseSpec(strings.NewReader(specJSON))
	if err != nil {
		log.Fatal(err)
	}
	big, err := capman.CellParamsFor(capman.NCA, 1000)
	if err != nil {
		log.Fatal(err)
	}
	little, err := capman.CellParamsFor(capman.LMO, 1000)
	if err != nil {
		log.Fatal(err)
	}
	pack := capman.DefaultPack()
	pack.Big, pack.Little = big, little

	scheduler, err := capman.New(capman.DefaultSchedulerConfig())
	if err != nil {
		log.Fatal(err)
	}
	wl, err := workload.Fresh(func() (workload.Generator, error) { return workload.FromSpec(spec, 5) })
	if err != nil {
		log.Fatal(err)
	}
	res, err := capman.Run(capman.SimConfig{
		Profile:  capman.NexusProfile(),
		Workload: wl,
		Policy:   scheduler,
		Pack:     pack,
		TEC:      capman.DefaultTEC(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload:     %s (declarative JSON, %d phases)\n", spec.Name, len(spec.Phases))
	fmt.Printf("service time: %.1f h (%s)\n", res.ServiceTimeS/3600, res.EndReason)
	fmt.Printf("avg power:    %.0f mW, %d battery switches, LITTLE ratio %.2f\n",
		res.AvgPowerW*1000, res.Switches, res.LittleRatio())
}
