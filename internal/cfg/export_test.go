package cfg

// OracleConnectBlocks is the parent commit's block builder (oracle_test.go),
// for the external test package: FuzzFrontHalf imports acfg and malgen, which
// import this package.
var OracleConnectBlocks = oracleConnectBlocks
