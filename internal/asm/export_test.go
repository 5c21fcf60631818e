package asm

// The parent-commit oracle of oracle_test.go, for the external test package
// (FuzzParse seeds itself from malgen, which imports this package).

type OracleProgram = oracleProgram

var (
	OracleParseString      = oracleParseString
	OracleTagProgram       = oracleTagProgram
	OracleKind             = oracleKind
	OracleCategory         = oracleCategory
	OracleNumericConstants = oracleNumericConstants
	OracleDstAddr          = oracleDstAddr
)
