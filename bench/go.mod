module botmeter/bench

go 1.22

require botmeter v0.0.0

replace botmeter => ../
