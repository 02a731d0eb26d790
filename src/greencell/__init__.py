"""Energy and coverage efficiency of base-station switch-off strategies in
massive-MIMO small-cell networks: closed-form point-process analytics
cross-validated against Monte Carlo simulation."""
