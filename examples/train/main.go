// Train: a miniature end-to-end run of the multi-agent training pipeline
// (§3.4): sample episodes from the Table 3 distribution, collect multi-flow
// experience, update the TD3/MADDPG networks, and watch the global reward
// trend. A full training run takes far longer; this demonstrates the
// machinery improving the policy from scratch.
//
//	go run ./examples/train
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/env"
)

func main() {
	cfg := core.DefaultConfig()
	dist := env.DefaultTrainingDistribution()
	dist.MaxFlows = 3 // keep the demo cheap

	// One rollout worker: each episode runs against the actor as the
	// previous episode's updates left it.
	learner := env.NewParallelLearner(cfg, dist, 1, 1)
	fmt.Println("episode   avgReward   criticLoss   replay")
	learner.AfterEpisode = func(episodes int) {
		fmt.Printf("%7d   %+.5f   %.5f   %d\n",
			episodes-1, learner.RewardHistory[episodes-1],
			learner.Trainer.LastCriticLoss, learner.Replay.Len())
	}
	const episodes = 8
	learner.Train(episodes)

	first := learner.RewardHistory[0]
	last := learner.RewardHistory[len(learner.RewardHistory)-1]
	fmt.Printf("\nreward moved from %+.5f to %+.5f over %d episodes\n", first, last, episodes)
	fmt.Println("(production training runs thousands of episodes across parallel")
	fmt.Println(" environment instances; see `astraea train`)")
}
