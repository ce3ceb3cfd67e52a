package nn

// MaterializedForward hands the external tests the two-step reference
// lowering (im2col_test.go) that inference is compared against.
var MaterializedForward = materializedForward
