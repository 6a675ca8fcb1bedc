package core

// StandardOracle is standardOracle for the daemon's half of the oracle
// test, which lives in package core_test because the daemon imports the
// core.
var StandardOracle = standardOracle
