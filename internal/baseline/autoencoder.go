package baseline

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// AutoencoderGBT is the deep-autoencoder hybrid of [9]: an unsupervised
// autoencoder learns a latent representation of the handcrafted features,
// then a gradient-boosted classifier is trained on the latent codes.
type AutoencoderGBT struct {
	LatentDim    int
	Epochs       int
	LearningRate float64
	Seed         int64

	std     *Standardizer
	encoder *nn.Sequential
	decoder *nn.Sequential
	gbt     *GradientBoosting
}

// NewAutoencoderGBT returns the hybrid with a 16-dimensional latent space.
func NewAutoencoderGBT(seed int64) *AutoencoderGBT {
	return &AutoencoderGBT{LatentDim: 16, Epochs: 40, LearningRate: 3e-3, Seed: seed}
}

// Fit trains the autoencoder on reconstruction (MSE) and then boosts on the
// latent codes (implements eval.Classifier).
func (a *AutoencoderGBT) Fit(train *dataset.Dataset) error {
	xs, ys := FeatureMatrix(train)
	a.FitFeatures(xs, ys, train.NumClasses())
	return nil
}

// FitFeatures trains on a pre-extracted feature matrix.
func (a *AutoencoderGBT) FitFeatures(xs [][]float64, ys []int, classes int) {
	a.std = FitStandardizer(xs)
	sx := a.std.ApplyAll(xs)
	dim := len(sx[0])
	rng := rand.New(rand.NewSource(a.Seed))
	hidden := (dim + a.LatentDim) / 2
	linear := func(in, out int) *nn.Linear { // Glorot-uniform weights, zero bias
		return nn.NewLinear(tensor.GlorotUniform(rng, in, out), tensor.New(1, out))
	}
	a.encoder = nn.NewSequential(
		linear(dim, hidden),
		nn.NewTanh(),
		linear(hidden, a.LatentDim),
		nn.NewTanh(),
	)
	a.decoder = nn.NewSequential(
		linear(a.LatentDim, hidden),
		nn.NewTanh(),
		linear(hidden, dim),
	)
	params := append(a.encoder.Params(), a.decoder.Params()...)
	opt := nn.NewAdam(params, a.LearningRate, 1e-5)

	order := make([]int, len(sx))
	for i := range order {
		order[i] = i
	}
	const batch = 16
	for epoch := 0; epoch < a.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			for _, i := range order[start:end] {
				code := a.encoder.Forward(nn.VecVolume(sx[i]), true)
				recon := a.decoder.Forward(code, true)
				_, dpred := nn.MSE(recon.Data, sx[i])
				dcode := a.decoder.Backward(nn.VecVolume(dpred))
				a.encoder.Backward(dcode)
			}
			opt.Step(end - start)
		}
	}

	// Boost on latent codes.
	latents := make([][]float64, len(sx))
	for i, x := range sx {
		latents[i] = a.encode(x)
	}
	a.gbt = NewGradientBoosting()
	a.gbt.FitFeatures(latents, ys, classes)
}

// encode maps a standardized feature vector to its latent code.
func (a *AutoencoderGBT) encode(sx []float64) []float64 {
	out := a.encoder.Forward(nn.VecVolume(sx), false)
	code := make([]float64, out.Len())
	copy(code, out.Data)
	return code
}

// ReconstructionError returns the MSE of the autoencoder on one feature
// vector, a useful diagnostic of representation quality.
func (a *AutoencoderGBT) ReconstructionError(x []float64) float64 {
	sx := a.std.Apply(x)
	code := a.encoder.Forward(nn.VecVolume(sx), false)
	recon := a.decoder.Forward(code, false)
	loss, _ := nn.MSE(recon.Data, sx)
	return loss
}

// Predict encodes and boosts (implements eval.Classifier).
func (a *AutoencoderGBT) Predict(s *dataset.Sample) []float64 {
	return a.PredictFeatures(Features(s.ACFG))
}

// PredictFeatures predicts from a pre-extracted feature vector.
func (a *AutoencoderGBT) PredictFeatures(x []float64) []float64 {
	return a.gbt.PredictFeatures(a.encode(a.std.Apply(x)))
}
