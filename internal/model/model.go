// Package model implements the OU behavior models of a self-driving DBMS
// (paper §2.1): given an operating unit's input features, predict its
// output metrics (elapsed time in the evaluation). The models are random
// forests of CART trees, one of the families MB2 uses, trained in batch
// (Forest) or over a sliding window (WindowedForest), plus the evaluation
// protocol from the paper: average absolute error per query template and
// k-fold cross-validation.
package model

import "errors"

// Model predicts a target from a feature vector.
type Model interface {
	Predict(x []float64) float64
}

// Trainer fits a Model to data.
type Trainer interface {
	Train(X [][]float64, y []float64) (Model, error)
}

// ErrNoData is returned when a training set is empty.
var ErrNoData = errors.New("model: no training data")
