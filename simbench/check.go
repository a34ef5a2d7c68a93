package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"odbscale/internal/system"
)

// ironLawTol is the relative tolerance of the iron-law check, the same
// 2% the simulator's own TestIronLawIdentity uses.
const ironLawTol = 0.02

// checkMetrics validates one measured run's public Metrics against its
// configuration:
//   - checkTxns;
//   - the iron law TPS = CPUUtil·P·F/(IPX·CPI) holds within ironLawTol;
//   - every CPI-breakdown component is finite and non-negative, and
//     their sum is positive.
func checkMetrics(cfg system.Config, m system.Metrics) error {
	if err := checkTxns(cfg, m); err != nil {
		return err
	}
	predicted := m.CPUUtil * float64(cfg.Processors) * cfg.Machine.FreqHz / (m.IPX * m.CPI)
	if rel := math.Abs(predicted-m.TPS) / m.TPS; !(rel <= ironLawTol) {
		return fmt.Errorf("W=%d P=%d: iron law off by %.2f%% (predicted %.1f TPS, measured %.1f)",
			cfg.Warehouses, cfg.Processors, rel*100, predicted, m.TPS)
	}
	for _, c := range m.Breakdown.Components() {
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) || c.Value < 0 {
			return fmt.Errorf("W=%d P=%d: CPI component %s = %v", cfg.Warehouses, cfg.Processors, c.Name, c.Value)
		}
	}
	if total := m.Breakdown.Total(); !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("W=%d P=%d: CPI breakdown total %v", cfg.Warehouses, cfg.Processors, total)
	}
	return nil
}

// checkTxns reports a run that stopped short of MeasureTxns, that is,
// one that hit the 300 s simulated-time cap. It is the whole check of
// the one-transaction set-up probes: their measurement window can be
// empty (the measured commit lands at the reset instant, so IPX, CPI
// and the CPI breakdown read 0) or skew the iron law by up to ~16%, so
// the rate checks of checkMetrics do not apply to them.
func checkTxns(cfg system.Config, m system.Metrics) error {
	if m.Txns != uint64(cfg.MeasureTxns) {
		return fmt.Errorf("W=%d P=%d: %d of %d measured transactions (simulated-time cap hit)",
			cfg.Warehouses, cfg.Processors, m.Txns, cfg.MeasureTxns)
	}
	return nil
}

// digest fingerprints every field of a Metrics value. Two runs of
// identical simulated behaviour give the same digest; any statistic that
// moves, down to the last bit, changes it.
func digest(m system.Metrics) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", m)))
	return hex.EncodeToString(sum[:8])
}
