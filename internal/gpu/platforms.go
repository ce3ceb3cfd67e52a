package gpu

// The four evaluation platforms from Table II of the paper, with the
// GPGPU-Sim occupancy parameters of Table VI (64K×32-bit registers, 48KB
// shared memory, 16 CTA / 2048 thread limits per SM). Power parameters are
// calibrated so each device's full-load power lands near its published
// board power (K20c 225W, Titan X 250W, GTX 970m ~75W, TX1 ~12W); the
// evaluation only relies on relative energy, not absolute watts.

// K20c is the server-class NVIDIA Tesla K20c (13 SMX × 192 cores @706MHz).
func K20c() *Device {
	return &Device{
		Name:             "K20c",
		Class:            Server,
		NumSMs:           13,
		ClockMHz:         706,
		CoresPerSM:       192,
		RegistersPerSM:   65536,
		SharedMemPerSM:   49152,
		MaxCTAsPerSM:     16,
		MaxThreadsPerSM:  2048,
		GlobalMemBytes:   5 << 30,
		UsableMemFrac:    0.92,
		MemBandwidthGBps: 208,
		PerThreadIPC:     0.25,
		IdlePowerW:       25,
		SMStaticPowerW:   5.0,
		SMDynPowerW:      8.0,
		DRAMPowerPerGBps: 0.15,
	}
}

// TitanX is the desktop-class NVIDIA GeForce GTX Titan X
// (24 SMM × 128 cores @1000MHz).
func TitanX() *Device {
	return &Device{
		Name:             "TitanX",
		Class:            Desktop,
		NumSMs:           24,
		ClockMHz:         1000,
		CoresPerSM:       128,
		RegistersPerSM:   65536,
		SharedMemPerSM:   49152,
		MaxCTAsPerSM:     16,
		MaxThreadsPerSM:  2048,
		GlobalMemBytes:   12 << 30,
		UsableMemFrac:    0.95,
		MemBandwidthGBps: 336,
		PerThreadIPC:     0.25,
		IdlePowerW:       15,
		SMStaticPowerW:   3.5,
		SMDynPowerW:      5.0,
		DRAMPowerPerGBps: 0.08,
	}
}

// GTX970m is the notebook-class NVIDIA GeForce GTX 970m
// (10 SMM × 128 cores @924MHz).
func GTX970m() *Device {
	return &Device{
		Name:             "GTX970m",
		Class:            Notebook,
		NumSMs:           10,
		ClockMHz:         924,
		CoresPerSM:       128,
		RegistersPerSM:   65536,
		SharedMemPerSM:   49152,
		MaxCTAsPerSM:     16,
		MaxThreadsPerSM:  2048,
		GlobalMemBytes:   3 << 30,
		UsableMemFrac:    0.92,
		MemBandwidthGBps: 120,
		PerThreadIPC:     0.25,
		IdlePowerW:       8,
		SMStaticPowerW:   2.5,
		SMDynPowerW:      3.5,
		DRAMPowerPerGBps: 0.06,
	}
}

// TX1 is the mobile-class NVIDIA Jetson TX1 (2 SMM × 128 cores @998MHz,
// 4GB LPDDR4 shared with the host OS at 25.6 GB/s).
func TX1() *Device {
	return &Device{
		Name:            "TX1",
		Class:           Mobile,
		NumSMs:          2,
		ClockMHz:        998,
		CoresPerSM:      128,
		RegistersPerSM:  65536,
		SharedMemPerSM:  49152,
		MaxCTAsPerSM:    16,
		MaxThreadsPerSM: 2048,
		GlobalMemBytes:  4 << 30,
		UsableMemFrac:   0.475, // LPDDR4 shared with the OS; just under half usable
		// The TX1 sustains roughly 70% of its rated 25.6 GB/s (LPDDR4
		// efficiency, bandwidth shared with the host), and its mobile
		// Maxwell SMs issue below the desktop rate under thermal limits.
		// These effective values calibrate the simulator to the paper's
		// measured ~25ms non-batched AlexNet latency (Table III).
		MemBandwidthGBps: 18,
		RatedMemBWGBps:   25.6,
		PerThreadIPC:     0.19,
		IdlePowerW:       2,
		SMStaticPowerW:   1.5,
		SMDynPowerW:      3.0,
		DRAMPowerPerGBps: 0.04,
	}
}

// AllPlatforms returns the four evaluation devices in Table II order.
func AllPlatforms() []*Device {
	return []*Device{K20c(), TitanX(), GTX970m(), TX1()}
}

// PlatformByName returns the named device, or nil if unknown. Lookup is
// case-sensitive and matches the Device.Name values above.
func PlatformByName(name string) *Device {
	for _, d := range AllPlatforms() {
		if d.Name == name {
			return d
		}
	}
	return nil
}
